package supervisor

import (
	"fmt"
	"math"

	"dui/internal/ron"
)

// ProbeObs is one probe measurement crossing the RON guard.
type ProbeObs struct {
	I, J int
	// RTT is the measured value; +Inf models a timeout.
	RTT float64
}

// RONGuard is the §5 supervisor for RON-style overlays: a
// probe-consistency check. The §3.2 attack drops or delays the tiny
// probe packets between two overlay nodes so the estimator diverts
// *data* onto a worse (or attacker-chosen) path. Genuine latency has
// jitter of a fraction of a millisecond around a stable per-pair
// baseline; the attack must move a pair's estimate by many
// milliseconds, round after round. The guard keeps its own admitted
// baseline per ordered pair and rejects samples outside a plausibility
// envelope; a persistent run of rejected samples on one pair counts as
// a level shift, and a couple of shifted pairs make the whole overlay's
// probe feed implausible. Wired through ron.Overlay.Admit, rejection IS
// the mitigation: tampered samples never reach the estimator, so routes
// stay put.
//
// The envelope is deliberately generous — max(AbsDev, RelDev×baseline)
// — so genuine path changes (rerouting, congestion onset) still pass
// once they persist: a genuine shift keeps producing consistent samples
// and Reset lets the operator re-learn, while the guard's per-pair flag
// records that something moved.
type RONGuard struct {
	// RelDev and AbsDev define the admission envelope around the
	// per-pair baseline: a sample within baseline ± max(AbsDev,
	// RelDev×baseline) is admitted (<= 0 = 0.5 and 3 ms).
	RelDev, AbsDev float64
	// Persist is how many consecutive rejected samples on one pair
	// count as a level shift (<= 0 = 3).
	Persist int
	// Alpha is the EWMA weight for admitted samples (<= 0 = 0.3).
	Alpha float64

	cost    GuardCost
	base    map[[2]int]float64
	streak  map[[2]int]int
	shifted map[[2]int]bool
}

// defaults applies the zero-value knobs.
func (g *RONGuard) defaults() {
	if g.RelDev <= 0 {
		g.RelDev = 0.5
	}
	if g.AbsDev <= 0 {
		g.AbsDev = 0.003
	}
	if g.Persist <= 0 {
		g.Persist = 3
	}
	if g.Alpha <= 0 {
		g.Alpha = 0.3
	}
	if g.base == nil {
		g.base = map[[2]int]float64{}
		g.streak = map[[2]int]int{}
		g.shifted = map[[2]int]bool{}
	}
}

var _ Guard[ProbeObs] = (*RONGuard)(nil)

// Check implements Guard. The verdict is about the single sample:
// Plausible means "admit into the estimator". Shift accounting happens
// as a side effect; Summary reports the run-level verdict. Any
// non-finite RTT (a timeout, or a NaN from a broken measurement) takes
// the timeout path: it is never admitted, least of all as a baseline.
func (g *RONGuard) Check(o ProbeObs) Verdict {
	g.defaults()
	g.cost.Checks++
	key := [2]int{o.I, o.J}
	finite := !math.IsNaN(o.RTT) && !math.IsInf(o.RTT, 0)
	b, seen := g.base[key]
	if !seen {
		if !finite {
			// Never admit a timeout as a baseline.
			g.cost.Flags++
			return Verdict{Risk: 1, Reason: "probe timeout before any baseline"}
		}
		g.base[key] = o.RTT
		return Verdict{Plausible: true, Risk: 0, Reason: "baseline sample"}
	}
	dev := math.Abs(o.RTT - b)
	env := math.Max(g.AbsDev, g.RelDev*b)
	if finite && dev <= env {
		g.base[key] = (1-g.Alpha)*b + g.Alpha*o.RTT
		g.streak[key] = 0
		return Verdict{Plausible: true, Risk: dev / (2 * env),
			Reason: "probe within the consistency envelope"}
	}
	g.streak[key]++
	g.cost.Flags++
	if g.streak[key] >= g.Persist && !g.shifted[key] {
		g.shifted[key] = true
	}
	return Verdict{Risk: 1,
		Reason: fmt.Sprintf("probe deviates %.1f ms from the pair baseline", 1000*dev)}
}

// Cost implements Guard.
func (g *RONGuard) Cost() GuardCost { return g.cost }

// Shifts returns how many ordered pairs saw a persistent run of
// rejected probes.
func (g *RONGuard) Shifts() int { return len(g.shifted) }

// Summary is the run-level verdict: risk scales with the number of
// persistently shifted pairs (2 shifted pairs reach the 0.5 veto
// threshold — one genuine path event moves one pair; coordinated
// tampering moves the direct pair plus the legs it must disadvantage).
func (g *RONGuard) Summary() Verdict {
	g.defaults()
	risk := float64(g.Shifts()) / 4
	if risk > 1 {
		risk = 1
	}
	v := Verdict{Risk: risk, Plausible: risk < 0.5}
	if v.Plausible {
		v.Reason = fmt.Sprintf("%d pair(s) with persistent probe deviation", g.Shifts())
	} else {
		v.Reason = fmt.Sprintf("%d pairs persistently deviating: probe feed tampered", g.Shifts())
	}
	return v
}

// GuardOverlay wires the guard into an overlay's probe path: every
// measurement is checked and rejected samples never reach the
// estimator.
func GuardOverlay(o *ron.Overlay, g *RONGuard) {
	o.Admit = func(i, j int, m float64) bool {
		return g.Check(ProbeObs{I: i, J: j, RTT: m}).Plausible
	}
}
