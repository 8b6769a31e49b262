package audit

import (
	"math"
	"strconv"

	"dui/internal/blink"
	"dui/internal/packet"
)

// MonAudit traces and checks a one-prefix blink.MonitorBank — a
// Pipeline's bank or one trial's selector. The tracer records every
// residence event (sample, evict, reset-evict), every detected
// retransmission, and every failure inference; the checker verifies the
// selector invariants the incremental-count optimization rests on.
type MonAudit struct {
	b *blink.MonitorBank
	v violations
}

// AttachMonitor installs continuous residence checks, and tracing when
// rec is non-nil, on the one-prefix bank b via its OnEvict/OnSample/
// OnRetrans/OnFailure observers; it panics on a bank with more than one
// prefix. Bank observers accumulate, so the auditor coexists with a
// reroute pipeline or an experiment observer on the same bank.
func AttachMonitor(b *blink.MonitorBank, rec *Recorder) *MonAudit {
	if b.Prefixes() != 1 {
		panic("audit: AttachMonitor needs a one-prefix bank")
	}
	a := &MonAudit{b: b}
	b.OnEvict(func(_ int, ev blink.Eviction) {
		if ev.Residence < 0 || math.IsNaN(ev.Residence) {
			a.v.add(ev.Now, RuleSelector, cellName(ev.Cell), "eviction before sampling (residence %g)", ev.Residence)
		}
		if rec != nil {
			k := KindEvict
			if ev.Reset {
				k = KindResetEvict
			}
			rec.Record(ev.Now, k, ev.Cell, ev.Key.FastHash())
		}
	})
	if rec == nil {
		return a
	}
	b.OnSample(func(_ int, now float64, key packet.FlowKey, cell int) {
		rec.Record(now, KindSample, cell, key.FastHash())
	})
	b.OnRetrans(func(_ int, ev blink.RetransEvent) {
		rec.Record(ev.Now, KindRetrans, ev.Cell, ev.Key.FastHash())
	})
	b.OnFailure(func(_ int, now float64) { rec.Record(now, KindFailure, 0, 0) })
	return a
}

func cellName(i int) string { return "cell " + strconv.Itoa(i) }

// Check verifies the selector's structural invariants at virtual time now
// (now must be >= the bank's last Feed time) and returns them joined
// with any violations the continuous hooks collected:
//
//   - occupied cells never exceed the configured cell count;
//   - per-cell timestamps are causal: SampledAt <= LastSeen, and a
//     retransmitting occupant has SampledAt <= LastRetr <= LastSeen;
//   - the `counted` flags are consistent with the incremental in-window
//     retransmission count: counted implies occupied-and-retransmitting,
//     the count equals the number of counted cells, every cell whose last
//     retransmission is still inside the window at now is counted, and
//     minLastRetr never exceeds any counted cell's LastRetr.
func (a *MonAudit) Check(now float64) error {
	cfg := a.b.Config()
	cells := a.b.CellsAt(0)
	if len(cells) != cfg.Cells {
		a.v.add(now, RuleSelector, "", "selector has %d cells, config says %d", len(cells), cfg.Cells)
	}
	occupied, counted := 0, 0
	minCounted := math.Inf(1)
	for i, c := range cells {
		if !c.Occupied {
			if c.Counted() {
				a.v.add(now, RuleSelector, cellName(i), "counted but unoccupied")
			}
			continue
		}
		occupied++
		if c.LastSeen > now {
			a.v.add(now, RuleSelector, cellName(i), "LastSeen %.9g after the audit time %.9g", c.LastSeen, now)
		}
		if c.LastSeen < c.SampledAt {
			a.v.add(now, RuleSelector, cellName(i), "LastSeen %.9g before SampledAt %.9g", c.LastSeen, c.SampledAt)
		}
		if c.HasRetr() && (c.LastRetr < c.SampledAt || c.LastRetr > c.LastSeen) {
			a.v.add(now, RuleSelector, cellName(i), "LastRetr %.9g outside [SampledAt %.9g, LastSeen %.9g]", c.LastRetr, c.SampledAt, c.LastSeen)
		}
		if c.Counted() {
			if !c.HasRetr() {
				a.v.add(now, RuleSelector, cellName(i), "counted without a retransmission")
			}
			counted++
			if c.LastRetr < minCounted {
				minCounted = c.LastRetr
			}
		} else if c.HasRetr() && now-c.LastRetr <= blink.RetransWindow {
			a.v.add(now, RuleSelector, cellName(i), "in-window retransmission (LastRetr %.9g, now %.9g) not counted", c.LastRetr, now)
		}
	}
	if occupied > cfg.Cells {
		a.v.add(now, RuleSelector, "", "%d occupied cells exceed the %d-cell selector", occupied, cfg.Cells)
	}
	count, minLastRetr := a.b.AuditWindowState(0)
	if count != counted {
		a.v.add(now, RuleSelector, "", "incremental retransmission count %d != %d counted cells", count, counted)
	}
	if counted > 0 && minLastRetr > minCounted {
		a.v.add(now, RuleSelector, "", "minLastRetr %.9g above the true counted minimum %.9g (bound must be conservative)", minLastRetr, minCounted)
	}
	return a.v.err()
}

// Violations returns the structured violations collected so far (shared
// backing array; callers must not mutate).
func (a *MonAudit) Violations() []Violation { return a.v.all() }
