package main

import (
	"errors"
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// the benchmark reports it. The median is always reported.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs, interpolating
// linearly between closest ranks. A tail percentile (p > 0.5) with fewer
// than minBeyond samples beyond it is refused: it would be read off a
// handful of points.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("percentile of no samples")
	}
	if beyond := (1 - p) * float64(len(xs)); p > 0.5 && beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, fewer than %d", 100*p, len(xs), beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo], nil
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo)), nil
}

// median is the 0.5-quantile of xs (0 for no samples).
func median(xs []float64) float64 {
	m, _ := percentile(xs, 0.5)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so a
// spread computed here reads the same as one computed there. It needs at
// least two samples; with one, all three are that sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
