package stats

import (
	"math"
	"sort"
	"testing"
)

// TestMedianMADMatchesReference pins MedianMAD (and MedianMADSorted, which
// it calls) to the from-scratch Median and MAD, bit for bit with any two
// NaNs equal, over random, duplicate-heavy and non-finite inputs of odd
// and even lengths.
func TestMedianMADMatchesReference(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	draws := map[string]func(*RNG) float64{
		"normal": func(r *RNG) float64 { return r.NormFloat64() * 1e3 },
		"dups":   func(r *RNG) float64 { return float64(r.IntN(4)) },
		"inf": func(r *RNG) float64 {
			switch r.IntN(4) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return r.Float64()
		},
		"posinf": func(r *RNG) float64 {
			if r.IntN(3) > 0 {
				return math.Inf(1)
			}
			return r.Float64()
		},
		"nan": func(r *RNG) float64 {
			if r.IntN(5) == 0 {
				return math.NaN()
			}
			return float64(r.IntN(6))
		},
		"mostlynan": func(r *RNG) float64 {
			if r.IntN(5) > 0 {
				return math.NaN()
			}
			return r.Float64()
		},
	}
	rng := NewRNG(7)
	for name, draw := range draws {
		for _, n := range []int{1, 2, 3, 4, 5, 10, 11, 199, 200} {
			for rep := 0; rep < 20; rep++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = draw(rng)
				}
				med, mad := MedianMAD(xs)
				if wantMed, wantMAD := Median(xs), MAD(xs); !same(med, wantMed) || !same(mad, wantMAD) {
					t.Fatalf("%s n=%d %v: MedianMAD = (%v, %v), want (%v, %v)",
						name, n, xs, med, mad, wantMed, wantMAD)
				}
			}
		}
	}
}

func TestMedianMADPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MedianMAD(nil)
}

func TestTrimmedMeanSortedMatchesTrimmedMean(t *testing.T) {
	rng := NewRNG(8)
	for _, n := range []int{0, 1, 2, 9, 10, 200} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for _, trim := range []float64{0, 0.1, 0.25, 0.49} {
			if got, want := TrimmedMeanSorted(s, trim), TrimmedMean(xs, trim); got != want {
				t.Fatalf("n=%d trim=%v: %v, want %v", n, trim, got, want)
			}
		}
	}
}
