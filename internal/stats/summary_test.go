package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v", s.Variance())
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var s Summary
		for _, x := range clean {
			s.Add(x)
		}
		mean := Mean(clean)
		v := 0.0
		for _, x := range clean {
			v += (x - mean) * (x - mean)
		}
		v /= float64(len(clean) - 1)
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(s.Mean()-mean)/scale < 1e-6 &&
			math.Abs(s.Variance()-v)/math.Max(1, v) < 1e-6
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3.5 {
		t.Fatalf("median = %v", got)
	}
	// Quantile must not mutate its input.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileWithinBounds(t *testing.T) {
	if err := quick.Check(func(xs []float64, qRaw uint16) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		q := float64(qRaw) / 65535
		v := Quantile(clean, q)
		s := make([]float64, len(clean))
		copy(s, clean)
		sort.Float64s(s)
		return v >= s[0] && v <= s[len(s)-1]
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if got := TrimmedMean(xs, 0.2); got != 3 {
		t.Fatalf("trimmed mean = %v", got)
	}
	if got := TrimmedMean(xs, 0); got != 22 {
		t.Fatalf("untrimmed mean = %v", got)
	}
}

func TestTrimmedMeanRobustToOutliers(t *testing.T) {
	// A 20% contamination of huge values must barely move a 25%-trimmed
	// mean — the property the Pytheas defense relies on.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 10
	}
	for i := 0; i < 20; i++ {
		xs[i] = 1e6
	}
	if got := TrimmedMean(xs, 0.25); got != 10 {
		t.Fatalf("trimmed mean moved to %v under contamination", got)
	}
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	// median = 2, |x-2| = {1,1,0,0,2,4,7}, median of that = 1.
	if got := MAD(xs); got != 1 {
		t.Fatalf("MAD = %v", got)
	}
}

func TestMedianOddEven(t *testing.T) {
	if Median([]float64{5, 1, 3}) != 3 {
		t.Fatal("odd median")
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
		func() { TrimmedMean([]float64{1, 2}, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(99)
	if h.Counts[0] != 1 || h.Counts[3] != 1 || h.Total() != 2 {
		t.Fatalf("clamping failed: %v", h.Counts)
	}
}

// TestHistogramAddClampsExtremes pins Add's clamping for values whose
// bin index does not fit an int: ±Inf and huge finite values must clamp
// to the end they lie beyond, and NaN goes to the first bin. The shape
// is the Blink supervisor's gap histogram (50 ms bins over [0, 4 s)).
func TestHistogramAddClampsExtremes(t *testing.T) {
	cases := []struct {
		x   float64
		bin int
	}{
		{math.Inf(1), 79},
		{1e300, 79},
		{1e19, 79},
		{math.MaxFloat64, 79},
		{4, 79},
		{math.Nextafter(4, 0), 79},
		{math.Inf(-1), 0},
		{-1e300, 0},
		{-1e19, 0},
		{0, 0},
		{math.NaN(), 0},
		{0.05, 1},
		{2.01, 40},
	}
	for _, c := range cases {
		h := NewHistogram(0, 4, 80)
		h.Add(c.x)
		if h.Counts[c.bin] != 1 || h.Total() != 1 {
			t.Errorf("Add(%v): counts %v, want one observation in bin %d", c.x, nonzeroBins(h), c.bin)
		}
	}
}

func nonzeroBins(h *Histogram) map[int]uint64 {
	m := map[int]uint64{}
	for i, c := range h.Counts {
		if c > 0 {
			m[i] = c
		}
	}
	return m
}

func TestSeriesFirstCrossing(t *testing.T) {
	s := NewSeries(0, 1, 10)
	copy(s.Values, []float64{1, 1, 1, 5, 5, 5, 5, 2, 2, 2})
	tc, ok := s.FirstCrossing(5)
	if !ok || tc != 3 {
		t.Fatalf("crossing = %v,%v", tc, ok)
	}
	if _, ok := s.FirstCrossing(6); ok {
		t.Fatal("crossing above max should not exist")
	}
}

func TestEnsembleAggregates(t *testing.T) {
	var e Ensemble
	for k := 1; k <= 5; k++ {
		s := NewSeries(0, 1, 3)
		for i := range s.Values {
			s.Values[i] = float64(k)
		}
		e.Add(s)
	}
	if m := e.Mean(); m.Values[0] != 3 {
		t.Fatalf("mean = %v", m.Values[0])
	}
	if q := e.Quantile(0.5); q.Values[2] != 3 {
		t.Fatalf("median = %v", q.Values[2])
	}
	if q := e.Quantile(0); q.Values[1] != 1 {
		t.Fatalf("min = %v", q.Values[1])
	}
}

func TestEnsembleShapeMismatchPanics(t *testing.T) {
	var e Ensemble
	e.Add(NewSeries(0, 1, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Add(NewSeries(0, 1, 4))
}

func TestCSVOutput(t *testing.T) {
	s := NewSeries(0, 0.5, 2)
	s.Values[1] = 1.5
	out := CSV([]string{"x"}, []*Series{s})
	want := "time,x\n0.000,0.0000\n0.500,1.5000\n"
	if out != want {
		t.Fatalf("CSV = %q", out)
	}
}
