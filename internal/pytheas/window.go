package pytheas

import (
	"math"
	"sort"
)

// Window is one option's sliding window of the most recent QoE reports.
// It keeps the reports in arrival order and, once an aggregator first
// asks for it, a sorted view that every later push keeps current by one
// binary-search delete and one insert, so an order-statistic aggregator
// reads it without copying or sorting the window per score.
//
// The sorted view holds exactly the window's values, ordered as
// sort.Float64s orders them (NaNs first). Only the relative order of
// values that compare equal can differ from a fresh sort, and reading
// them in either order gives the same quantiles, trimmed means and MADs;
// the one exception is which sign a median of exactly zero carries when
// the window holds both −0 and +0.
type Window struct {
	size   int       // capacity in reports
	buf    []float64 // buf[start:] is the window, oldest report first
	start  int
	sorted []float64 // the window ascending; valid once ready
	ready  bool
}

// Len returns the number of reports in the window.
func (w *Window) Len() int { return len(w.buf) - w.start }

// Values returns the window in arrival order, oldest first. The slice is
// a view: it is valid until the next report and must not be modified.
func (w *Window) Values() []float64 { return w.buf[w.start:] }

// Sorted returns the window in ascending sort.Float64s order. The slice
// is a view: it is valid until the next report and must not be modified.
// The first call sorts; later reports keep the view sorted.
func (w *Window) Sorted() []float64 {
	if !w.ready {
		w.sorted = append(w.sorted[:0], w.Values()...)
		sort.Float64s(w.sorted)
		w.ready = true
	}
	return w.sorted
}

// push appends one report, evicting the oldest once the window is full.
func (w *Window) push(x float64) {
	if w.Len() == w.size {
		old := w.buf[w.start]
		w.start++
		if w.ready {
			w.remove(old)
		}
	}
	if len(w.buf) == cap(w.buf) && w.start > 0 {
		// Slide the window to the front of its backing array. With at
		// least size free slots behind it this happens once per size
		// reports.
		buf := w.buf
		if cap(buf) < 2*w.size {
			buf = make([]float64, 0, 2*w.size)
		}
		w.buf = append(buf[:0], w.buf[w.start:]...)
		w.start = 0
	}
	w.buf = append(w.buf, x)
	if w.ready {
		i := searchFloat(w.sorted, x)
		w.sorted = append(w.sorted, 0)
		copy(w.sorted[i+1:], w.sorted[i:])
		w.sorted[i] = x
	}
}

// remove deletes one value bit-identical to x from the sorted view.
func (w *Window) remove(x float64) {
	i := searchFloat(w.sorted, x)
	for math.Float64bits(w.sorted[i]) != math.Float64bits(x) {
		i++ // past equal-comparing values of another sign or payload
	}
	w.sorted = append(w.sorted[:i], w.sorted[i+1:]...)
}

// searchFloat returns the first index of s (sorted as sort.Float64s
// sorts) whose value does not order before x.
func searchFloat(s []float64, x float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if floatLess(s[m], x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// floatLess is sort.Float64s' order: NaN before every number.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}
