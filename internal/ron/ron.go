// Package ron models a RON-style resilient overlay network (Andersen et
// al., SOSP'01), the control-plane case study of §3.2: overlay nodes probe
// each other and route application traffic either directly or through one
// intermediate overlay hop, whichever the probes say is faster.
//
// The paper's observation: "an attacker in the path between two nodes
// could drop or delay RON's probes, so as to divert traffic to another
// next-hop". Probes are a tiny fraction of traffic, so the attacker's
// budget is minimal, yet the diverted *data* — which she never touches —
// takes a measurably worse path (or one she controls).
package ron

import (
	"math"

	"dui/internal/stats"
)

// Overlay is the simulated overlay: an underlay latency matrix plus the
// per-pair latency estimates maintained from probes.
type Overlay struct {
	n   int
	lat [][]float64 // true one-way underlay latency (seconds)
	est [][]float64 // probe-derived estimates
	// Admit, if set, vets every probe measurement before it reaches the
	// estimator (the §5 probe-consistency guard); a rejected sample
	// leaves the (i, j) estimate untouched, timeouts included.
	Admit func(i, j int, m float64) bool

	rng *stats.RNG

	// ProbesSent / ProbesTampered account the attacker's budget.
	ProbesSent, ProbesTampered uint64
}

// probeAlpha is the estimator's EWMA weight for new probe samples, and
// probeJitter the per-probe measurement noise standard deviation.
const (
	probeAlpha  float64 = 0.3
	probeJitter float64 = 0.0005
)

// ProbeTamper distorts one probe measurement crossing the (i, j) overlay
// link; it returns the value the prober observes. Returning +Inf models a
// dropped probe (timeout → path considered dead).
type ProbeTamper func(i, j int, trueRTT float64) float64

// NewRandom builds an overlay of n nodes placed uniformly in a unit
// square, with latency proportional to distance plus a base hop cost —
// the standard synthetic stand-in for RTT matrices.
func NewRandom(n int, rng *stats.RNG) *Overlay {
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64(), rng.Float64()}
	}
	lat := make([][]float64, n)
	for i := range lat {
		lat[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := pts[i].x-pts[j].x, pts[i].y-pts[j].y
			// 5–55 ms scaled by distance, symmetric.
			l := 0.005 + 0.05*math.Sqrt(dx*dx+dy*dy)
			lat[i][j], lat[j][i] = l, l
		}
	}
	o := &Overlay{n: n, lat: lat, rng: rng.Child()}
	o.est = make([][]float64, n)
	for i := range o.est {
		o.est[i] = make([]float64, n)
		copy(o.est[i], lat[i])
	}
	return o
}

// TrueLatency returns the underlay latency of the (i, j) link.
func (o *Overlay) TrueLatency(i, j int) float64 { return o.lat[i][j] }

// Probe runs one full probing round: every ordered pair measures its
// direct link, optionally through the attacker's tamper function.
func (o *Overlay) Probe(tamper ProbeTamper) {
	for i := 0; i < o.n; i++ {
		for j := 0; j < o.n; j++ {
			if i == j {
				continue
			}
			o.ProbesSent++
			m := o.lat[i][j] + probeJitter*math.Abs(o.rng.NormFloat64())
			if tamper != nil {
				t := tamper(i, j, m)
				if t != m {
					o.ProbesTampered++
				}
				m = t
			}
			if o.Admit != nil && !o.Admit(i, j, m) {
				continue
			}
			if math.IsInf(m, 1) {
				// Timeout: treat the link as dead (huge estimate).
				o.est[i][j] = math.Inf(1)
				continue
			}
			if math.IsInf(o.est[i][j], 1) {
				o.est[i][j] = m
			} else {
				o.est[i][j] = (1-probeAlpha)*o.est[i][j] + probeAlpha*m
			}
		}
	}
}

// Route returns the overlay route for (src, dst): the direct path or the
// best one-intermediate path according to the current estimates. The
// returned slice is the node sequence.
func (o *Overlay) Route(src, dst int) []int {
	best := []int{src, dst}
	bestCost := o.est[src][dst]
	for k := 0; k < o.n; k++ {
		if k == src || k == dst {
			continue
		}
		c := o.est[src][k] + o.est[k][dst]
		if c < bestCost {
			bestCost = c
			best = []int{src, k, dst}
		}
	}
	return best
}

// DataLatency returns the *true* latency experienced by data on the
// currently chosen route for (src, dst). The attacker never needs to touch
// data packets — that is the point.
func (o *Overlay) DataLatency(src, dst int) float64 {
	r := o.Route(src, dst)
	total := 0.0
	for i := 0; i+1 < len(r); i++ {
		total += o.lat[r[i]][r[i+1]]
	}
	return total
}

// DelayProbes returns a tamper that adds extra seconds to every probe on
// the (i, j) underlay link (both directions).
func DelayProbes(i, j int, extra float64) ProbeTamper {
	return func(a, b int, rtt float64) float64 {
		if (a == i && b == j) || (a == j && b == i) {
			return rtt + extra
		}
		return rtt
	}
}

// DropProbes returns a tamper that times out every probe on (i, j).
func DropProbes(i, j int) ProbeTamper {
	return func(a, b int, rtt float64) float64 {
		if (a == i && b == j) || (a == j && b == i) {
			return math.Inf(1)
		}
		return rtt
	}
}

// SteerVia returns a tamper that makes the path via a chosen intermediate
// the most attractive for (src, dst): it delays the direct probes and the
// probes of every other intermediate's legs the attacker controls. It
// models a MitM who has tapped the victim's access link — she sees all of
// src's probes.
func SteerVia(src, dst, via int, extra float64) ProbeTamper {
	return func(a, b int, rtt float64) float64 {
		if a != src && b != src {
			return rtt
		}
		other := a
		if other == src {
			other = b
		}
		if other == via {
			return rtt // the blessed leg stays fast
		}
		return rtt + extra
	}
}

// Outcome reports the E7c experiment.
type Outcome struct {
	// DirectLatency is the victim pair's true direct latency.
	DirectLatency float64
	// CleanLatency is the data latency with honest probes.
	CleanLatency float64
	// AttackedLatency is the data latency after probe tampering.
	AttackedLatency float64
	// Inflation is Attacked/Clean.
	Inflation float64
	// Diverted reports whether the route left the direct path.
	Diverted bool
	// ViaAttacker reports whether the route crosses the attacker's
	// chosen intermediate (for SteerVia).
	ViaAttacker bool
	// TamperBudget is the fraction of probes touched.
	TamperBudget float64
}

// The E7c setup: an 8-node overlay whose victim pair is (0, 1).
const (
	AttackNodes          int = 8
	VictimSrc, VictimDst int = 0, 1
)

// RunProbeAttack builds a random overlay, lets it converge, applies the
// tamper for a number of rounds, and reports the victim pair's fate.
func RunProbeAttack(seed uint64, mk func(o *Overlay) (ProbeTamper, int)) Outcome {
	rng := stats.NewRNG(seed)
	o := NewRandom(AttackNodes, rng)
	for r := 0; r < 20; r++ {
		o.Probe(nil)
	}
	out := Outcome{
		DirectLatency: o.TrueLatency(VictimSrc, VictimDst),
		CleanLatency:  o.DataLatency(VictimSrc, VictimDst),
	}
	tamper, via := mk(o)
	for r := 0; r < 40; r++ {
		o.Probe(tamper)
	}
	out.AttackedLatency = o.DataLatency(VictimSrc, VictimDst)
	if out.CleanLatency > 0 {
		out.Inflation = out.AttackedLatency / out.CleanLatency
	}
	route := o.Route(VictimSrc, VictimDst)
	out.Diverted = len(route) > 2
	for _, hop := range route[1 : len(route)-1] {
		if hop == via {
			out.ViaAttacker = true
		}
	}
	out.TamperBudget = float64(o.ProbesTampered) / float64(o.ProbesSent)
	return out
}
