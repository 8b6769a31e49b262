package stats

import "math"

// Binomial is the distribution of the number of successes among N
// independent trials with success probability P. It is the exact model the
// paper uses in §3.1 for the number of Blink flow-selector cells occupied by
// malicious flows.
type Binomial struct {
	N int
	P float64
}

// Mean returns N*P.
func (b Binomial) Mean() float64 { return float64(b.N) * b.P }

// PMF returns P(X = k), computed in the log domain for numerical stability.
func (b Binomial) PMF(k int) float64 {
	if k < 0 || k > b.N {
		return 0
	}
	switch b.P {
	case 0:
		if k == 0 {
			return 1
		}
		return 0
	case 1:
		if k == b.N {
			return 1
		}
		return 0
	}
	lp := logChoose(b.N, k) + float64(k)*math.Log(b.P) + float64(b.N-k)*math.Log1p(-b.P)
	return math.Exp(lp)
}

// CDF returns P(X <= k) by direct summation of the PMF. N is at most a few
// thousand in this repository, so the O(N) sum is both exact enough and
// cheap.
func (b Binomial) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= b.N {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += b.PMF(i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Survival returns P(X >= k).
func (b Binomial) Survival(k int) float64 {
	if k <= 0 {
		return 1
	}
	return 1 - b.CDF(k-1)
}

// Quantile returns the smallest k such that CDF(k) >= q. It panics unless
// 0 <= q <= 1.
func (b Binomial) Quantile(q float64) int {
	if q < 0 || q > 1 {
		panic("stats: binomial quantile out of range")
	}
	if q == 0 {
		return 0
	}
	sum := 0.0
	for k := 0; k <= b.N; k++ {
		sum += b.PMF(k)
		if sum >= q-1e-12 {
			return k
		}
	}
	return b.N
}

// logChoose returns log(n choose k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// HarmonicDiff returns H(n) - H(m), the difference of harmonic numbers, for
// n >= m >= 0. It is used for the expected order statistics of exponential
// samples (the hitting-time analysis of the Blink attack).
func HarmonicDiff(n, m int) float64 {
	if n < m {
		return -HarmonicDiff(m, n)
	}
	sum := 0.0
	for i := m + 1; i <= n; i++ {
		sum += 1 / float64(i)
	}
	return sum
}
