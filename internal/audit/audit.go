// Package audit is the opt-in correctness layer for the simulation
// substrate: invariant checkers that prove packet conservation, queue
// bounds, virtual-time causality, and Blink selector consistency while a
// simulation runs, and an event-trace recorder whose output localizes the
// *first* diverging event between two runs (duireport simtrace) instead
// of leaving bit-identity claims to whole-file CSV diffs.
//
// The package only observes: it attaches to the hooks the substrate
// exposes (netsim.Network.SetLinkProbe, netsim.Engine.SetAudit, the
// blink.MonitorBank On* observers, blink.Fig2Config.ObserveTrial) and never
// mutates simulation state. MonAudit traces and checks a one-prefix Blink
// bank (a Pipeline's, one Fig 2 trial's, or one PoP prefix's reference
// bank in popscale's tests). With nothing attached the substrate pays one
// nil check per event — the zero-allocation hot-path guarantees of the
// engine, the trace generators, and MonitorBank.Feed are unchanged.
//
// Audits are wired into tests and experiment binaries behind the
// DUI_AUDIT=1 environment variable (or each binary's -audit flag); reduced
// scale versions run unconditionally. `make audit` runs the full suite
// race-enabled with audits on.
package audit

import (
	"errors"
	"fmt"
	"os"
	"strings"
)

// EnabledFromEnv reports whether the DUI_AUDIT environment variable turns
// audit instrumentation on: "1", "true", "yes", and "on" (any case) enable
// it; anything else — including unset — leaves it off. Every DUI_AUDIT
// consumer (test suites, cmd flag defaults) goes through this one parser.
func EnabledFromEnv() bool {
	switch strings.ToLower(os.Getenv("DUI_AUDIT")) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// Violation is one invariant failure with the structured context the
// fuzzing shrinker keys on: Rule identifies the broken invariant (stable
// across shrink candidates — a shrink step is only accepted when the same
// rule still fires), T and Where localize it, and Detail carries the
// human-readable specifics. A Violation is an error, so existing
// errors.Join-based reporting is unchanged.
type Violation struct {
	T      float64 `json:"t"`
	Rule   string  `json:"rule"`
	Where  string  `json:"where,omitempty"`
	Detail string  `json:"detail"`
}

// Rule names used by the checkers in this package. Scenario-level oracles
// (internal/scenario) define further rules on top of these.
const (
	RuleOccupancy        = "occupancy"           // negative queued/onWire/tapHeld
	RuleQueueCap         = "queue-cap"           // drop-tail queue over capacity
	RuleQueueSurvives    = "queue-survives-down" // queued packets outlived a link failure
	RuleLinkConservation = "link-conservation"   // Sent != Delivered+drops+occupancy
	RuleSendConservation = "send-conservation"   // Offered+Injected+Duplicated != TapDrop+FaultDrop+held+Sent
	RuleShadowMismatch   = "shadow-mismatch"     // LinkStats disagree with observed events
	RuleNotDrained       = "not-drained"         // occupancy left at drain time
	RuleSelector         = "selector-state"      // Blink selector invariant broken
)

// Error implements error.
func (v Violation) Error() string {
	var b strings.Builder
	b.WriteString("audit: [")
	b.WriteString(v.Rule)
	b.WriteString("]")
	if v.T != 0 || v.Where != "" {
		fmt.Fprintf(&b, " t=%.9g", v.T)
	}
	if v.Where != "" {
		b.WriteString(" ")
		b.WriteString(v.Where)
	}
	b.WriteString(": ")
	b.WriteString(v.Detail)
	return b.String()
}

// maxViolations bounds how many violations a checker accumulates; a broken
// invariant usually trips on every subsequent event, and the first few
// localize the bug.
const maxViolations = 32

// violations collects invariant failures without stopping the simulation,
// so a single root cause reports its earliest manifestations rather than
// panicking on the first.
type violations struct {
	list      []Violation
	truncated int
}

func (v *violations) add(t float64, rule, where, format string, args ...any) {
	if len(v.list) >= maxViolations {
		v.truncated++
		return
	}
	v.list = append(v.list, Violation{T: t, Rule: rule, Where: where, Detail: fmt.Sprintf(format, args...)})
}

// all returns the collected violations (shared backing array; callers must
// not mutate).
func (v *violations) all() []Violation { return v.list }

// err joins the collected violations into one error, nil if none.
func (v *violations) err() error {
	if len(v.list) == 0 {
		return nil
	}
	errs := make([]error, 0, len(v.list)+1)
	for _, vi := range v.list {
		errs = append(errs, vi)
	}
	if v.truncated > 0 {
		errs = append(errs, fmt.Errorf("audit: %d further violations suppressed", v.truncated))
	}
	return errors.Join(errs...)
}
