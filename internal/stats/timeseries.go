package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Series is a step function sampled at fixed intervals: Values[i] is the
// value of the series during [Start + i*Step, Start + (i+1)*Step). It is the
// shape of every time-series the experiments emit (e.g., the "# of sampled
// malicious flows over time" curve of Fig 2).
type Series struct {
	Start, Step float64
	Values      []float64
}

// NewSeries returns a zero-filled series covering [start, start+n*step).
func NewSeries(start, step float64, n int) *Series {
	return &Series{Start: start, Step: step, Values: make([]float64, n)}
}

// Index returns the bin index of time t, clamped to the series bounds.
func (s *Series) Index(t float64) int {
	i := int((t - s.Start) / s.Step)
	if i < 0 {
		i = 0
	}
	if i >= len(s.Values) {
		i = len(s.Values) - 1
	}
	return i
}

// Time returns the start time of bin i.
func (s *Series) Time(i int) float64 { return s.Start + float64(i)*s.Step }

// Ensemble aggregates many runs of the same experiment: one Series per run,
// all sharing Start/Step/len. It produces the per-bin mean and quantile
// envelopes plotted in the paper's Fig 2.
type Ensemble struct {
	runs []*Series
}

// Add appends one run. All runs must have identical shape; Add panics
// otherwise.
func (e *Ensemble) Add(s *Series) {
	if len(e.runs) > 0 {
		r0 := e.runs[0]
		if r0.Start != s.Start || r0.Step != s.Step || len(r0.Values) != len(s.Values) {
			panic("stats: ensemble series shape mismatch")
		}
	}
	e.runs = append(e.runs, s)
}

// Mean returns the per-bin mean across runs.
func (e *Ensemble) Mean() *Series { return e.aggregate(func(xs []float64) float64 { return Mean(xs) }) }

// Quantile returns the per-bin q-quantile across runs.
func (e *Ensemble) Quantile(q float64) *Series {
	return e.aggregate(func(xs []float64) float64 {
		sort.Float64s(xs)
		return QuantileSorted(xs, q)
	})
}

func (e *Ensemble) aggregate(f func([]float64) float64) *Series {
	if len(e.runs) == 0 {
		panic("stats: aggregate of empty ensemble")
	}
	r0 := e.runs[0]
	out := NewSeries(r0.Start, r0.Step, len(r0.Values))
	buf := make([]float64, len(e.runs))
	for i := range r0.Values {
		for j, r := range e.runs {
			buf[j] = r.Values[i]
		}
		out.Values[i] = f(buf)
	}
	return out
}

// FirstCrossing returns the earliest bin start time at which the series
// reaches or exceeds level, and whether such a bin exists.
func (s *Series) FirstCrossing(level float64) (float64, bool) {
	for i, v := range s.Values {
		if v >= level {
			return s.Time(i), true
		}
	}
	return 0, false
}

// CSV renders named series sharing a time axis as comma-separated rows with
// a header, suitable for plotting. All series must have the same shape.
func CSV(names []string, series []*Series) string {
	if len(names) != len(series) || len(series) == 0 {
		panic("stats: CSV needs one name per series")
	}
	var b strings.Builder
	b.WriteString("time")
	for _, n := range names {
		b.WriteString(",")
		b.WriteString(n)
	}
	b.WriteString("\n")
	s0 := series[0]
	for i := range s0.Values {
		fmt.Fprintf(&b, "%.3f", s0.Time(i))
		for _, s := range series {
			fmt.Fprintf(&b, ",%.4f", s.Values[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}
