package sketch

import "dui/internal/stats"

// Bloom is a classic Bloom filter over FlowIDs, sharing the partitioned
// hash scheme of the FlowRadar table. It exists for the other half of the
// §3.2 claim, after Gerbet et al.'s "power of evil choices": an attacker
// who knows the hash functions saturates the filter (drives the false
// positive rate toward 1) with far fewer insertions than benign traffic
// would need, because every crafted key sets only fresh bits.
type Bloom struct {
	bits []bool
	k    int
	set  int
}

// NewBloom returns a filter with m bits and k hashes.
func NewBloom(m, k int) *Bloom {
	if m <= 0 || k <= 0 || m < k {
		panic("sketch: need positive filter size >= hash count")
	}
	return &Bloom{bits: make([]bool, m), k: k}
}

// Add inserts a key.
func (b *Bloom) Add(id FlowID) {
	var buf [8]int
	for _, p := range appendPositions(buf[:0], id, b.k, len(b.bits)) {
		if !b.bits[p] {
			b.bits[p] = true
			b.set++
		}
	}
}

// Contains reports (probabilistic) membership.
func (b *Bloom) Contains(id FlowID) bool {
	var buf [8]int
	for _, p := range appendPositions(buf[:0], id, b.k, len(b.bits)) {
		if !b.bits[p] {
			return false
		}
	}
	return true
}

// FillRatio returns the fraction of set bits.
func (b *Bloom) FillRatio() float64 { return float64(b.set) / float64(len(b.bits)) }

// EstimateFPR measures the false positive rate on fresh random keys.
func (b *Bloom) EstimateFPR(probes int, rng *stats.RNG) float64 {
	hits := 0
	for i := 0; i < probes; i++ {
		if b.Contains(FlowID(rng.Uint64() | 1<<62)) {
			hits++
		}
	}
	return float64(hits) / float64(probes)
}

// SaturationInsertions counts the insertions needed to push the measured
// FPR to the target, using either crafted keys (each chosen to set k
// fresh bits — a greedy scan over the public hash) or random keys. The
// crafted/random ratio is the attacker's advantage.
func SaturationInsertions(m, k int, targetFPR float64, crafted bool, rng *stats.RNG) int {
	b := NewBloom(m, k)
	n := 0
	next := FlowID(1)
	var buf [8]int
	for b.EstimateFPR(400, rng.Child()) < targetFPR {
		if crafted {
			// Greedy: take the next key all of whose bits are unset.
			for {
				ok := true
				for _, p := range appendPositions(buf[:0], next, k, m) {
					if b.bits[p] {
						ok = false
						break
					}
				}
				if ok || b.FillRatio() > 0.99 {
					break
				}
				next++
			}
			b.Add(next)
			next++
		} else {
			b.Add(FlowID(rng.Uint64() &^ (3 << 62)))
		}
		n++
		if n > 100*m {
			break // safety: unreachable target
		}
	}
	return n
}
