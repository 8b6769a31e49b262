package stats

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Observations
// outside the range are clamped into the first or last bin so totals are
// preserved. The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	total  uint64
}

// NewHistogram returns a histogram with n bins over [lo, hi). It panics
// unless lo < hi and n > 0.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if !(lo < hi) || n <= 0 {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, n)}
}

// Add records one observation. The range test comes before the bin
// index conversion: converting an out-of-range float (±Inf, or a finite
// value whose bin index overflows int) is implementation-defined in Go,
// and on amd64 yields a negative index that would land in the first bin.
// NaN goes to the first bin.
func (h *Histogram) Add(x float64) {
	i := 0
	switch {
	case x >= h.Hi:
		i = len(h.Counts) - 1
	case x > h.Lo:
		i = min(int((x-h.Lo)/(h.Hi-h.Lo)*float64(len(h.Counts))), len(h.Counts)-1)
	}
	h.Counts[i]++
	h.total++
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Coverage returns how well this histogram, taken as a model distribution,
// explains the observed histogram: the expectation under the observed
// distribution of the model's normalized bin mass, scaled so the model's
// strongest bin scores 1. The result is 1 when every observation falls in
// the model's most-expected bin and 0 when none lands where the model has
// mass. Unlike an L1 distance, Coverage does not punish observations for
// being *more* concentrated than the model — a deterministic environment
// legitimately collapses a model's jitter bands to a point, which is why
// the Blink supervisor scores plausibility with Coverage. Both histograms
// must have identical shape and be non-empty.
func (h *Histogram) Coverage(obs *Histogram) float64 {
	if h.Lo != obs.Lo || h.Hi != obs.Hi || len(h.Counts) != len(obs.Counts) {
		panic("stats: histogram shape mismatch")
	}
	if h.total == 0 || obs.total == 0 {
		panic("stats: coverage of empty histogram")
	}
	mmax := uint64(0)
	for _, c := range h.Counts {
		if c > mmax {
			mmax = c
		}
	}
	cov := 0.0
	for i := range h.Counts {
		p := float64(obs.Counts[i]) / float64(obs.total)
		cov += p * float64(h.Counts[i]) / float64(mmax)
	}
	return cov
}
