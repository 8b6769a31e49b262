package stats

import (
	"math"
	"sort"
)

// Summary accumulates streaming mean and variance using Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the sample mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the default of R and
// NumPy). xs is not modified. It panics on an empty slice or q outside
// [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile fraction out of range")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// QuantileSorted is Quantile for data already sorted ascending; it does not
// copy.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile fraction out of range")
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// TrimmedMean returns the mean of xs after removing the lowest and highest
// trim fraction of observations (0 <= trim < 0.5). With trim = 0 it equals
// Mean. It is the aggregation ablation for the Pytheas defense (§5).
func TrimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if trim < 0 || trim >= 0.5 {
		panic("stats: trim fraction must be in [0, 0.5)")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	return Mean(s)
}

// MAD returns the median absolute deviation of xs: median(|x - median(x)|).
// It is the robust scale estimate used by the outlier-filtering defenses.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// TrimmedMeanSorted is TrimmedMean for data already sorted ascending; it
// does not copy.
func TrimmedMeanSorted(sorted []float64, trim float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if trim < 0 || trim >= 0.5 {
		panic("stats: trim fraction must be in [0, 0.5)")
	}
	k := int(trim * float64(len(sorted)))
	return Mean(sorted[k : len(sorted)-k])
}

// MedianMAD returns Median(xs) and MAD(xs) from one sorted copy of xs
// instead of the three sorts the two calls make. It panics on an empty
// slice, as Median does.
func MedianMAD(xs []float64) (med, mad float64) {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return MedianMADSorted(s)
}

// MedianMADSorted is MedianMAD for data already sorted as sort.Float64s
// sorts (NaNs first, then ascending); it neither copies nor allocates.
//
// The deviations |x − med| are V-shaped over sorted data — falling up to
// the median, rising after it, since rounded subtraction is monotone — so
// the order statistics the MAD's median needs come from merging the two
// runs outward from the median, without materializing or sorting them.
// Each deviation is computed exactly as MAD computes it, so both results
// equal Median and MAD bit for bit (a NaN result may carry a different
// NaN payload).
func MedianMADSorted(sorted []float64) (med, mad float64) {
	n := len(sorted)
	if n == 0 {
		panic("stats: quantile of empty slice")
	}
	med = quantileSorted(sorted, 0.5)
	// The order statistics quantileSorted(·, 0.5) reads, and their weight.
	pos := 0.5 * float64(n-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	// Sorted deviations are the NaN ones first (NaN inputs, and inputs
	// equal to an infinite median), then the rest ascending; dev returns
	// the one at the given rank.
	nans := 0
	for nans < n && math.IsNaN(sorted[nans]) {
		nans++
	}
	var dLo, dHi float64
	switch {
	case math.IsNaN(med):
		return med, math.NaN()
	case math.IsInf(med, 0):
		// Every non-NaN deviation is Inf except at x == med (Inf − Inf).
		for _, x := range sorted[nans:] {
			if x == med {
				nans++
			}
		}
		dLo, dHi = math.Inf(1), math.Inf(1)
		if lo < nans {
			dLo = math.NaN()
		}
		if hi < nans {
			dHi = math.NaN()
		}
	default:
		dLo, dHi = math.NaN(), math.NaN()
		r := sorted[nans:]
		// j is the first index at or above the median, i the last below.
		j := sort.SearchFloat64s(r, med)
		i := j - 1
		for rank := nans; rank <= hi; rank++ {
			var d float64
			if j >= len(r) || (i >= 0 && math.Abs(r[i]-med) < math.Abs(r[j]-med)) {
				d = math.Abs(r[i] - med)
				i--
			} else {
				d = math.Abs(r[j] - med)
				j++
			}
			if rank == lo {
				dLo = d
			}
			if rank == hi {
				dHi = d
			}
		}
	}
	if lo == hi {
		return med, dLo
	}
	return med, dLo*(1-frac) + dHi*frac
}
