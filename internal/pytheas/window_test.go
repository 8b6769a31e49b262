package pytheas

import (
	"math"
	"testing"

	"dui/internal/stats"
)

// madFilteredScratch is the from-scratch MADFiltered over a slice: the
// reference the window-based aggregator must match.
func madFilteredScratch(k float64, w []float64) float64 {
	if len(w) == 0 {
		return 0
	}
	med := stats.Median(w)
	mad := stats.MAD(w)
	if mad == 0 {
		return med
	}
	var kept []float64
	for _, x := range w {
		if math.Abs(x-med) <= k*mad {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 {
		return med
	}
	return stats.Mean(kept)
}

// sameFloat is bit equality, with any two NaNs equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestWindowAggregatorsMatchScratch feeds random report streams through a
// group and, after every report, compares each aggregator on the window
// with the same aggregator computed from scratch on the window's
// arrival-order values. The sorted view is built at a random point of
// each stream, so both its first sort and its incremental upkeep are
// covered.
func TestWindowAggregatorsMatchScratch(t *testing.T) {
	type scratchAgg struct {
		name string
		win  Aggregator
		ref  func([]float64) float64
	}
	aggs := []scratchAgg{
		{"mean", Mean, stats.Mean},
		{"median", Median, func(w []float64) float64 {
			if len(w) == 0 {
				return 0
			}
			return stats.Median(w)
		}},
		{"trimmed", Trimmed(0.1), func(w []float64) float64 { return stats.TrimmedMean(w, 0.1) }},
		{"trimmed0", Trimmed(0), func(w []float64) float64 { return stats.TrimmedMean(w, 0) }},
		{"mad3", MADFiltered(3), func(w []float64) float64 { return madFilteredScratch(3, w) }},
		{"mad0.5", MADFiltered(0.5), func(w []float64) float64 { return madFilteredScratch(0.5, w) }},
	}
	// Each stream draws one report; duplicate-heavy streams evict values
	// that are still present elsewhere in the window.
	streams := map[string]func(*stats.RNG) float64{
		"uniform": func(r *stats.RNG) float64 { return 5 * r.Float64() },
		"dups": func(r *stats.RNG) float64 {
			return []float64{0, 0.2, 2.5, 4.5, 4.8, 5}[r.IntN(6)]
		},
		"nan": func(r *stats.RNG) float64 {
			switch r.IntN(20) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
			return float64(r.IntN(10)) / 2
		},
	}
	for _, size := range []int{1, 2, 7, 200} {
		for sname, draw := range streams {
			for seed := uint64(1); seed <= 3; seed++ {
				rng := stats.NewRNG(seed)
				g := NewGroup(E2Config{Window: size})
				w := &g.windows[0]
				var ref []float64
				steps := 3*size + 50
				from := rng.IntN(steps)
				for step := 0; step < steps; step++ {
					x := draw(rng)
					g.Report(0, x)
					ref = append(ref, x)
					if len(ref) > size {
						ref = ref[1:]
					}
					if step < from {
						continue
					}
					vals := w.Values()
					if len(vals) != len(ref) {
						t.Fatalf("size %d %s: window len %d, want %d", size, sname, len(vals), len(ref))
					}
					for i := range ref {
						if !sameFloat(vals[i], ref[i]) {
							t.Fatalf("size %d %s: arrival order differs at %d", size, sname, i)
						}
					}
					for _, a := range aggs {
						got, want := a.win(w), a.ref(append([]float64(nil), ref...))
						if !sameFloat(got, want) {
							t.Fatalf("size %d %s seed %d step %d: %s = %v, from scratch %v",
								size, sname, seed, step, a.name, got, want)
						}
					}
				}
			}
		}
	}
}

// TestWindowSortedViewHoldsExactValues checks that evicting one of two
// equal-comparing values removes that exact value. The second zero is
// inserted ahead of the first in the sorted view, so the eviction must
// look past it to the zero of the evicted sign.
func TestWindowSortedViewHoldsExactValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, first := range []float64{negZero, 0} {
		second := math.Copysign(0, -math.Copysign(1, first))
		g := NewGroup(E2Config{Window: 2})
		w := &g.windows[0]
		g.Report(0, first)
		w.Sorted()
		g.Report(0, second)
		g.Report(0, 1) // evicts first
		s := w.Sorted()
		if len(s) != 2 || math.Float64bits(s[0]) != math.Float64bits(second) || s[1] != 1 {
			t.Fatalf("after evicting %v: sorted view %v", first, s)
		}
	}
}
