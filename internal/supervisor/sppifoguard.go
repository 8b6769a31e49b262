package supervisor

import (
	"fmt"

	"dui/internal/sppifo"
)

// SPPIFOObs is one admission observation for the SP-PIFO guard: every
// enqueue reports its rank and whether it took the push-down path (and
// at what bound-collapse cost).
type SPPIFOObs struct {
	Rank     int
	PushDown bool
	// Cost is the bound decrease a push-down applies (0 for push-up).
	Cost int
}

// SPPIFOGuard is the §5 supervisor for SP-PIFO: rank-inversion rate
// limiting. SP-PIFO's queue-bound adaptation assumes rank arrival order
// is random. The §3.2 attacks break that assumption in two ways, and
// the guard watches for both signatures over a sliding admission
// sppifoWindow:
//
//   - descending ramps push down (ranks undercutting every bound) on
//     nearly every packet, collapsing the bounds — the windowed
//     push-down RATE spikes far above what random order produces;
//   - sawtooth bursts climb through the queues in long ascending runs
//     and reset with a single deep push-down, wedging the queue into a
//     degenerate one-queue state — the push-down rate stays normal, but
//     the stream contains long MONOTONE RUNS of ranks, which random
//     arrival order essentially never yields (P(run ≥ 6) ≈ 2/6!).
//
// When either signature crosses its threshold the verdict goes
// implausible and — wired through sppifo.SPPIFO.Admission — the packets
// that are themselves part of the adversarial pattern (push-downs, and
// members of long monotone runs) are vetoed: dropped without moving the
// bounds, so crafted bursts stop dragging the queue state with them.
// Benign traffic admitted during a flagged sppifoWindow is untouched.
type SPPIFOGuard struct {
	cost    GuardCost
	ring    []bool // push-down history
	runRing []bool // run-event history
	idx     int
	fill    int
	downs   int
	runEvts int

	prevRank int
	dir      int // +1 ascending, -1 descending, 0 none
	runLen   int
}

// The SP-PIFO guard's sppifoWindow and thresholds.
const (
	// sppifoWindow is the sliding admission sppifoWindow in packets.
	sppifoWindow int = 128
	// sppifoMaxRate is the push-down rate at which the verdict goes
	// implausible (uniform random ranks sit near 1/queues).
	sppifoMaxRate float64 = 0.30
	// sppifoMinDowns is the minimum push-downs in the sppifoWindow before the rate
	// channel may flag — a cold-start floor.
	sppifoMinDowns int = 16
	// sppifoRunLen is the monotone run length at which a packet counts as
	// a run event (random order reaches it with probability ~2/6! per
	// packet).
	sppifoRunLen int = 6
	// sppifoRunEvents is the windowed run-event count at which the run
	// channel flags.
	sppifoRunEvents int = 6
)

var _ Guard[SPPIFOObs] = (*SPPIFOGuard)(nil)

// Check implements Guard. The risk is the larger of the two channel
// risks, each normalized so its threshold lands exactly on the 0.5 veto
// threshold (inclusive, like every supervisor in this package).
func (g *SPPIFOGuard) Check(o SPPIFOObs) Verdict {
	if g.ring == nil {
		g.ring = make([]bool, sppifoWindow)
		g.runRing = make([]bool, sppifoWindow)
	}

	// Monotone run tracking (ties break the run).
	if g.fill > 0 {
		switch d := sign(o.Rank - g.prevRank); {
		case d != 0 && d == g.dir:
			g.runLen++
		case d != 0:
			g.dir, g.runLen = d, 2
		default:
			g.dir, g.runLen = 0, 1
		}
	} else {
		g.runLen = 1
	}
	g.prevRank = o.Rank
	runEvt := g.runLen >= sppifoRunLen

	if g.fill == sppifoWindow {
		if g.ring[g.idx] {
			g.downs--
		}
		if g.runRing[g.idx] {
			g.runEvts--
		}
	} else {
		g.fill++
	}
	g.ring[g.idx] = o.PushDown
	g.runRing[g.idx] = runEvt
	if o.PushDown {
		g.downs++
	}
	if runEvt {
		g.runEvts++
	}
	g.idx = (g.idx + 1) % sppifoWindow
	g.cost.Checks++

	rate := float64(g.downs) / float64(g.fill)
	rateRisk := rate / (2 * sppifoMaxRate)
	if rateRisk > 1 {
		rateRisk = 1
	}
	if g.downs < sppifoMinDowns {
		rateRisk = 0
	}
	runRisk := float64(g.runEvts) / float64(2*sppifoRunEvents)
	if runRisk > 1 {
		runRisk = 1
	}

	risk := rateRisk
	reason := fmt.Sprintf("push-down rate %.2f: rank arrival order adversarially sorted", rate)
	if runRisk > risk {
		risk = runRisk
		reason = fmt.Sprintf("%d monotone rank runs >= %d in sppifoWindow: rank arrival order adversarially sorted", g.runEvts, sppifoRunLen)
	}
	v := Verdict{Risk: risk, Plausible: risk < 0.5}
	if v.Plausible {
		v.Reason = fmt.Sprintf("push-down rate %.2f, %d long runs: consistent with random rank arrival", rate, g.runEvts)
	} else {
		v.Reason = reason
		g.cost.Flags++
	}
	return v
}

// InRun reports whether the most recently checked packet sits inside a
// monotone rank run of at least sppifoRunLen — i.e. whether that packet is
// itself part of the pattern the run channel flags.
func (g *SPPIFOGuard) InRun() bool {
	return g.runLen >= sppifoRunLen
}

// Cost implements Guard.
func (g *SPPIFOGuard) Cost() GuardCost { return g.cost }

// GuardSPPIFO wires the guard into a queue's admission path: every
// enqueue is checked, and while the verdict is implausible the packets
// implicated in the adversarial pattern — push-downs, and members of
// long monotone runs — are vetoed (dropped without moving the bounds).
// Packets outside the pattern are admitted normally even during a
// flagged sppifoWindow, so benign traffic is not collateral.
func GuardSPPIFO(q *sppifo.SPPIFO, g *SPPIFOGuard) {
	q.Admission = func(rank, cost int, pushDown bool) bool {
		v := g.Check(SPPIFOObs{Rank: rank, PushDown: pushDown, Cost: cost})
		if v.Plausible {
			return true
		}
		return !pushDown && !g.InRun()
	}
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
