package blink

import (
	"math"

	"dui/internal/stats"
)

// Model is the §3.1 theoretical attack model. Each of the N selector cells
// independently becomes malicious-occupied over time: the occupant turns
// over on average every TR seconds, and each new occupant is malicious with
// probability Qm (the malicious traffic fraction); once malicious, the
// occupant is never evicted until the sample reset. The per-cell
// occupation probability after t seconds is therefore
//
//	p(t) = 1 - (1-Qm)^(t/TR)
//
// and the number of malicious cells is Binomial(N, p(t)) — exactly the
// model plotted as the "calculated" curves of Fig 2.
type Model struct {
	N         int     // selector cells (64)
	Threshold int     // cells needed for a majority (32)
	TR        float64 // mean sampled residence of a legitimate flow (s)
	Qm        float64 // malicious traffic fraction
}

// OccupationProb returns p(t).
func (m Model) OccupationProb(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return 1 - math.Pow(1-m.Qm, t/m.TR)
}

// At returns the malicious-cell distribution at time t.
func (m Model) At(t float64) stats.Binomial {
	return stats.Binomial{N: m.N, P: m.OccupationProb(t)}
}

// MeanCurve returns the expected number of malicious cells sampled on
// [0, duration) at the given step.
func (m Model) MeanCurve(duration, step float64) *stats.Series {
	s := stats.NewSeries(0, step, int(duration/step))
	for i := range s.Values {
		s.Values[i] = m.At(s.Time(i)).Mean()
	}
	return s
}

// QuantileCurve returns the per-time q-quantile of the malicious cell
// count (the 5th/95th-percentile envelopes of Fig 2).
func (m Model) QuantileCurve(q, duration, step float64) *stats.Series {
	s := stats.NewSeries(0, step, int(duration/step))
	for i := range s.Values {
		s.Values[i] = float64(m.At(s.Time(i)).Quantile(q))
	}
	return s
}

// MajorityProb returns P(at least Threshold malicious cells at time t).
func (m Model) MajorityProb(t float64) float64 {
	return m.At(t).Survival(m.Threshold)
}

// cellRate is the per-cell malicious-capture rate: under the model the
// time for one cell to turn malicious is exponential with this rate,
// because P(still clean after t) = (1-Qm)^(t/TR) = exp(-λt).
func (m Model) cellRate() float64 {
	return -math.Log1p(-m.Qm) / m.TR
}

// ExpectedHittingTime returns the expected time until Threshold of the N
// cells are malicious: the Threshold-th order statistic of N iid
// exponentials, E = (H(N) - H(N-Threshold)) / λ.
func (m Model) ExpectedHittingTime() float64 {
	return stats.HarmonicDiff(m.N, m.N-m.Threshold) / m.cellRate()
}

// HittingTimeQuantile returns the q-quantile of the majority hitting time,
// found by bisection on MajorityProb (which is monotone in t).
func (m Model) HittingTimeQuantile(q float64) float64 {
	lo, hi := 0.0, 10*m.ExpectedHittingTime()+1
	for hi-lo > 1e-3 {
		mid := (lo + hi) / 2
		if m.MajorityProb(mid) >= q {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// ExpectedCapturable returns the expected number of selector cells that at
// least one of m attacker flows hashes into: n·(1 − (1−1/n)^m). The §3.1
// binomial model implicitly assumes unlimited attacker flow diversity; with
// a finite pool (the paper's experiment uses 105 flows on 64 cells) only
// these cells can ever be captured, which slows the majority hitting time
// relative to the pure model — a plausible source of the gap between the
// model's ~106 s expectation and the ~172 s the paper's caption quotes.
func ExpectedCapturable(n, m int) float64 {
	return float64(n) * (1 - math.Pow(1-1/float64(n), float64(m)))
}

// MinAttackerFlows returns the smallest attacker pool size whose expected
// capturable cell count reaches the threshold plus the given slack — the
// practical sizing rule for the §3.1 attack.
func MinAttackerFlows(n, threshold int, slack float64) int {
	for m := 1; ; m++ {
		if ExpectedCapturable(n, m) >= float64(threshold)+slack {
			return m
		}
	}
}

// requiredConfidence is the majority probability RequiredQm asks for.
const requiredConfidence float64 = 0.95

// RequiredQm returns the smallest malicious traffic fraction for which a
// majority is reached within budget seconds with probability
// requiredConfidence. It inverts the model by bisection; the §3.1
// observation "with longer tR, the attack is harder, i.e., requires
// higher qm" is this function's monotonicity in TR.
func RequiredQm(n, threshold int, tr, budget float64) float64 {
	lo, hi := 0.0, 1.0
	for hi-lo > 1e-6 {
		mid := (lo + hi) / 2
		m := Model{N: n, Threshold: threshold, TR: tr, Qm: mid}
		if m.MajorityProb(budget) >= requiredConfidence {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
