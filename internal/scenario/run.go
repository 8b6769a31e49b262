package scenario

import (
	"fmt"

	"dui/internal/audit"
	"dui/internal/netsim"
)

// Scenario-level oracle rules, on top of the invariant rules defined by
// internal/audit. The shrinker treats all rules uniformly: a shrink step is
// accepted when the candidate still violates the original rule.
const (
	// RulePanic: the scenario paniced the simulator (construction or run).
	RulePanic = "panic"
	// RuleInvalid: the scenario failed Validate.
	RuleInvalid = "invalid-scenario"
	// RuleQuiescence: in-flight traffic outlived a computed sound drain
	// bound — some event source never terminates.
	RuleQuiescence = "quiescence"
	// RuleDeterminism: two runs of the identical scenario value diverged.
	RuleDeterminism = "determinism"
	// RuleReroute: a Blink failover executed without the threshold number
	// of in-window retransmitting cells behind it.
	RuleReroute = "reroute-threshold"
	// RuleLivelock: the engine's event budget ran out — a callback chain
	// self-scheduled at zero delay without advancing virtual time.
	RuleLivelock = "livelock"
)

// runEventBudget is the engine event budget Run installs: far above any
// legitimate scenario run, so the only way to exhaust it is a zero-delay
// self-scheduling loop, which then surfaces as a RuleLivelock violation
// in seconds instead of a wall-clock hang.
const runEventBudget = 1 << 26

// Options lets a caller attach extra machinery to the built scenario.
type Options struct {
	// Hook, if non-nil, runs on the Built scenario after construction and
	// before the simulation starts — the installation point for
	// supervisor guards and extra observers (internal/advsearch's
	// guarded-twin evaluation). RunChecked passes the hook to both runs
	// of its determinism double-run, so hooks must be re-runnable: any
	// per-run state must be created inside the hook, and anything written
	// through captured variables must be assigned identically by both
	// runs (which determinism guarantees for a deterministic hook).
	Hook func(*Built)
}

// Report is the outcome of one scenario run. A run with no violations is a
// pass; everything else carries the structured context the shrinker and
// the corpus need.
type Report struct {
	Violations []audit.Violation `json:"violations,omitempty"`
	// EventCount and TraceHash fingerprint the run's event trace; the
	// determinism oracle compares them across a double run. The trace
	// itself is folded into them as it happens and never retained.
	EventCount int    `json:"event_count"`
	TraceHash  uint64 `json:"trace_hash"`
	// Reroutes counts Blink failovers executed (0 without Blink).
	Reroutes int `json:"reroutes,omitempty"`
	// Vetoes counts Blink failovers blocked by a guard a Hook installed.
	Vetoes int `json:"vetoes,omitempty"`
	// Delivered counts packets received by hosts.
	Delivered uint64 `json:"delivered"`
	// FinalTime is the virtual time the run drained at.
	FinalTime float64 `json:"final_time"`
}

// Failed reports whether any oracle fired.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Rules returns the distinct violated rules in first-violation order.
func (r *Report) Rules() []string {
	var out []string
	seen := map[string]bool{}
	for _, v := range r.Violations {
		if !seen[v.Rule] {
			seen[v.Rule] = true
			out = append(out, v.Rule)
		}
	}
	return out
}

// HasRule reports whether the given rule fired.
func (r *Report) HasRule(rule string) bool {
	for _, v := range r.Violations {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// Run executes the scenario under the full oracle stack and returns the
// report. Run never panics: scenario-induced panics become RulePanic
// violations, invalid scenarios RuleInvalid. The report is a pure function
// of the scenario value.
func Run(s *Scenario, opts Options) (rep Report) {
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(*netsim.LivelockError); ok {
				rep.Violations = append(rep.Violations, audit.Violation{
					T: le.Now, Rule: RuleLivelock, Detail: le.Error(),
				})
				return
			}
			rep.Violations = append(rep.Violations, audit.Violation{
				Rule: RulePanic, Detail: fmt.Sprint(r),
			})
		}
	}()
	if err := s.Validate(); err != nil {
		rep.Violations = append(rep.Violations, audit.Violation{
			Rule: RuleInvalid, Detail: err.Error(),
		})
		return rep
	}
	b := Build(s)
	if opts.Hook != nil {
		opts.Hook(b)
	}
	nw := b.Net
	nw.Engine().SetEventBudget(runEventBudget)
	nw.RunUntil(s.Duration)

	// Drain: no new traffic enters after Duration (workloads and injection
	// pumps stop at or before it), so everything still in flight must
	// complete within the computed bound; anything pending past it means an
	// event source failed to terminate.
	deadline := drainDeadline(s, nw)
	nw.RunUntil(deadline)
	quiesced := nw.Engine().Pending() == 0
	nw.Teardown() // runs the registered CheckDrained into NetAudit

	if b.MonAudit != nil {
		_ = b.MonAudit.Check(nw.Now())
	}
	rep.Violations = append(rep.Violations, b.NetAudit.Violations()...)
	if b.MonAudit != nil {
		rep.Violations = append(rep.Violations, b.MonAudit.Violations()...)
	}
	if b.reroute != nil {
		rep.Violations = append(rep.Violations, b.reroute.violations...)
	}
	if !quiesced {
		rep.Violations = append(rep.Violations, audit.Violation{
			T: nw.Now(), Rule: RuleQuiescence,
			Detail: fmt.Sprintf("%d events still pending after the drain deadline %.6g", nw.Engine().Pending(), deadline),
		})
	}

	rep.EventCount = b.Recorder.Len()
	rep.TraceHash = b.Recorder.Hash()
	if b.Pipe != nil {
		rep.Reroutes = len(b.Pipe.Reroutes())
		rep.Vetoes = b.Pipe.VetoedReroutes
	}
	for i, n := range b.nodes {
		if !s.Nodes[i].Router {
			rep.Delivered += n.Stats().Received
		}
	}
	rep.FinalTime = nw.Now()
	return rep
}

// RunChecked is Run plus the determinism oracle: the scenario runs twice
// and the two trace fingerprints must agree. The returned report is the
// first run's, with a RuleDeterminism violation appended on divergence.
// The hook (if any) runs in both runs — a guard that vetoed a reroute in
// the first run must veto it in the second, so Vetoes is part of the
// comparison.
func RunChecked(s *Scenario, opts Options) Report {
	rep := Run(s, opts)
	again := Run(s, Options{Hook: opts.Hook})
	if rep.TraceHash != again.TraceHash || rep.EventCount != again.EventCount ||
		rep.Reroutes != again.Reroutes || rep.Vetoes != again.Vetoes {
		rep.Violations = append(rep.Violations, audit.Violation{
			Rule: RuleDeterminism,
			Detail: fmt.Sprintf("double run diverged: trace %#x/%d events/%d reroutes/%d vetoes vs %#x/%d/%d/%d",
				rep.TraceHash, rep.EventCount, rep.Reroutes, rep.Vetoes, again.TraceHash, again.EventCount, again.Reroutes, again.Vetoes),
		})
	}
	return rep
}

// drainDeadline computes a sound (generous) upper bound on when all
// in-flight traffic at time Duration must have drained. Every packet —
// plus at most one ICMP reply each, and at most TTL hops even through a
// failover-induced routing loop — waits behind at most the whole surviving
// population at each hop:
//
//	deadline = now + 1 + 2·TTL·(pop·maxTx + maxDelay + sumTapDelay)
//
// The bound is loose by design: virtual time is free, and only a
// non-terminating event source (the quiescence bug class) can outlive it.
func drainDeadline(s *Scenario, nw *netsim.Network) float64 {
	occ := 0
	for _, l := range nw.Links() {
		for _, dir := range []netsim.Direction{netsim.AToB, netsim.BToA} {
			q, w, h := l.Occupancy(dir)
			occ += q + w + h
		}
	}
	maxTx, maxDelay := 0.0, 0.0
	for li, ls := range s.Links {
		if ls.RateBps > 0 {
			// A degraded link serializes slower; packets enqueued during
			// the degraded window keep their slow serialization even after
			// the rate is restored, so the bound uses each link's worst
			// (most degraded) rate over the whole run.
			rate := ls.RateBps
			for _, ds := range s.Degrades {
				if ds.Link == li {
					rate *= ds.Factor
				}
			}
			if tx := 1500 * 8 / rate; tx > maxTx {
				maxTx = tx
			}
		}
		if ls.Delay > maxDelay {
			maxDelay = ls.Delay
		}
	}
	tapDelay := 0.0
	for _, ts := range s.Taps {
		tapDelay += ts.Delay
	}
	// Gray jitter holds a packet past Duration by at most Jitter (the
	// processes themselves go quiet at Duration, so held packets are the
	// only fault-plane contribution to the drain).
	for _, gs := range s.Gray {
		tapDelay += gs.Jitter
	}
	pop := float64(2*occ + 2)
	perHop := pop*maxTx + maxDelay + tapDelay
	const ttl = 64
	return nw.Now() + 1 + 2*ttl*perHop
}
