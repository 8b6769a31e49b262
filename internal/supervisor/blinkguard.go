package supervisor

import (
	"math"
	"sync"

	"dui/internal/blink"
	"dui/internal/stats"
)

// RTOModel is the Blink supervisor's model of plausible retransmission
// timing: upon a genuine remote failure, a flow's first retransmission
// arrives one RTO after its last packet, and later ones at exponential
// backoff — so the gap distribution is a mixture of {RTO, 2·RTO, 4·RTO}
// over the flows' RTO values, which the supervisor derives from passively
// measured RTTs. An attacker with host privileges does not know the RTT
// distribution of the legitimate flows behind this router (§5), so her
// fake retransmissions expose their own pacing instead.
type RTOModel struct {
	hist *stats.Histogram
}

// Histogram shape shared by model and observations: 50 ms bins over
// [0, 4s).
func gapHistogram() *stats.Histogram { return stats.NewHistogram(0, 4, 80) }

// NewRTOModel builds the expected gap distribution from passively
// observed smoothed RTTs. rtoMin is the protocol's minimum RTO (RFC 6298:
// 200 ms in this repository's TCP model).
func NewRTOModel(srtts []float64, rtoMin float64) *RTOModel {
	if rtoMin <= 0 {
		rtoMin = 0.2
	}
	h := gapHistogram()
	for _, s := range srtts {
		rto := math.Max(rtoMin, 1.5*s)
		// First retransmission and two backoff stages, weighted by how
		// often each is observed during a failure window. The observed
		// gap is the RTO plus the residual inter-packet spacing of the
		// flow (its last packet predates the failure by up to one
		// spacing), so each stage is spread over a +0..250 ms band — plus
		// one bin below the stage, because a measured gap of exactly one
		// RTO ((t+RTO)-t in floats) straddles the bin edge either way.
		for i, w := range []int{6, 3, 1} {
			g := rto * math.Pow(2, float64(i))
			for n := 0; n < w; n++ {
				for u := -0.05; u < 0.25; u += 0.05 {
					h.Add(g + u)
				}
			}
		}
	}
	return &RTOModel{hist: h}
}

// DefaultRTOModel returns the model every deployment in this repository
// uses: trained from the smoothed RTTs of a clean, failure-free Blink
// failover run at the 200 ms RTO floor. RunFailover consumes no RNG, so
// the model is a process-independent constant; it is built once per
// process and shared (checks only read it).
func DefaultRTOModel() *RTOModel {
	defaultModelOnce.Do(func() {
		clean := blink.RunFailover(blink.FailoverConfig{FailAt: 0, Duration: 20})
		defaultModel = NewRTOModel(clean.SRTTs, 0.2)
	})
	return defaultModel
}

var (
	defaultModelOnce sync.Once
	defaultModel     *RTOModel
)

// check compares observed retransmission gaps against the model. The risk
// is 1 minus the model's Coverage of the observed histogram (0 = every
// gap in the model's most-expected bins, 1 = no gap anywhere the model
// has mass). Coverage, not L1 distance: in a low-jitter environment every
// genuine gap collapses onto the RTO floor, and a symmetric distance
// would read that concentration — the strongest possible match with the
// model's dominant bin — as implausible.
//
// The verdict is implausible exactly when risk >= maxRisk. The boundary
// is inclusive by design — a window whose risk lands exactly on the
// threshold is vetoed — so "Plausible == (risk < maxRisk)" holds
// everywhere the verdict is consumed (pinned by the boundary table
// tests). maxRisk <= 0 means the default 0.5; maxRisk > 1 disables
// vetoes (risk never exceeds 1), the knob a deliberately weakened
// deployment turns. A nil or untrained model has no evidence to judge
// by and returns plausible.
func (m *RTOModel) check(gaps []float64, maxRisk float64) Verdict {
	if maxRisk <= 0 {
		maxRisk = 0.5
	}
	if len(gaps) == 0 {
		return Verdict{Plausible: true, Risk: 0, Reason: "no retransmissions observed"}
	}
	if m == nil || m.hist.Total() == 0 {
		return Verdict{Plausible: true, Risk: 0, Reason: "untrained RTO model: no RTT samples to judge by"}
	}
	obs := gapHistogram()
	for _, g := range gaps {
		obs.Add(g)
	}
	risk := 1 - m.hist.Coverage(obs)
	v := Verdict{Risk: risk, Plausible: risk < maxRisk}
	if v.Plausible {
		v.Reason = "retransmission timing matches the expected RTO distribution"
	} else {
		v.Reason = "retransmission timing inconsistent with the RTO distribution of legitimate flows"
	}
	return v
}

// BlinkGuard is the Blink supervisor: it judges one veto-time window of
// retransmission gaps against an RTOModel. GuardPipeline wires it into a
// blink.Pipeline, where it records the monitored prefix's gaps and vetoes
// failovers whose gap window fails the check.
type BlinkGuard struct {
	Model *RTOModel
	// Window is how far back (seconds) the wired veto path considers
	// gaps (GuardPipeline sets 3).
	Window float64
	// MaxRisk is the veto threshold (<= 0 = 0.5; > 1 never vetoes — a
	// deliberately weakened guard). The wired veto path reads it at veto
	// time, so it may be set after GuardPipeline returns.
	MaxRisk float64

	// Verdicts records every check performed.
	Verdicts []Verdict

	gaps  []float64
	times []float64
}

var _ Guard[[]float64] = (*BlinkGuard)(nil)

// GuardPipeline installs a guard over model on pipeline's first monitored
// prefix (3 s gap window, veto at risk >= 0.5) and returns it. Call
// before traffic starts.
//
// The veto-time gap selection uses the same subtraction form as
// blink.Monitor's in-window test (now - t <= window), via windowContains.
// The earlier addition form (t >= now - window) disagrees with it at
// exact window edges — IEEE rounding of now-window differs from that of
// now-t — so the guard would judge a slightly different gap set than the
// selector counted, the boundary drift a search-based attacker can sit
// on. The table tests in boundary_test.go pin the agreement.
func GuardPipeline(p *blink.Pipeline, model *RTOModel) *BlinkGuard {
	g := &BlinkGuard{Model: model, Window: 3}
	p.Monitor(0).OnRetrans(func(ev blink.RetransEvent) {
		g.gaps = append(g.gaps, ev.Gap)
		g.times = append(g.times, ev.Now)
	})
	p.Veto = func(r blink.Reroute, m *blink.Monitor) bool {
		var recent []float64
		for i := range g.gaps {
			if windowContains(r.Now, g.times[i], g.Window) {
				recent = append(recent, g.gaps[i])
			}
		}
		return !g.Check(recent).Plausible
	}
	return g
}

// Check implements Guard: it judges one veto-time window of
// retransmission gaps at the guard's threshold and records the verdict.
func (g *BlinkGuard) Check(gaps []float64) Verdict {
	v := g.Model.check(gaps, g.MaxRisk)
	g.Verdicts = append(g.Verdicts, v)
	return v
}

// Cost implements Guard, derived from the recorded verdicts.
func (g *BlinkGuard) Cost() GuardCost {
	c := GuardCost{Checks: len(g.Verdicts)}
	for _, v := range g.Verdicts {
		if !v.Plausible {
			c.Flags++
		}
	}
	return c
}

// windowContains reports whether an event at time t lies within the
// sliding window ending at now — in the same subtraction form
// (now-t <= window) the blink selector uses, so guard and monitor agree
// at the exact window edge.
func windowContains(now, t, window float64) bool {
	return now-t <= window
}
