// Package stats provides the deterministic randomness, probability
// distributions, and summary statistics used throughout the reproduction.
//
// # Determinism contract
//
// Everything in this package is seed-deterministic: two runs with the same
// seed produce bit-identical results. Simulation code must obtain all
// randomness from an *RNG (never from the global math/rand source or the
// wall clock) so that experiments are reproducible.
//
// Independent streams come from SplitMix64 child derivation, not from
// sharing one generator: a parent RNG hands out numbered children (Child),
// and ChildAt(seed, k) reaches the k-th child without constructing the
// parent — the derivation every parallel sweep uses so that trial k's
// stream depends only on the root seed and k, never on worker count,
// completion order, or how many draws other trials made. Two streams
// derived this way are unrelated even for adjacent seeds (the second PCG
// word is itself SplitMix64-expanded). Code that interleaves draws from a
// single stream across logically concurrent actors breaks the contract;
// give each actor its own child.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random number generator with support for deriving
// independent child streams. It wraps a PCG generator from math/rand/v2 and
// adds the samplers used by the simulator and workload generators.
type RNG struct {
	src *rand.Rand
	// seed material retained so children can be derived deterministically.
	hi, lo uint64
	childs uint64
}

// NewRNG returns a generator seeded from a single 64-bit seed. The second
// PCG word is derived with SplitMix64 so that nearby seeds yield unrelated
// streams.
func NewRNG(seed uint64) *RNG {
	hi := seed
	lo := splitmix64(&hi)
	r := &RNG{hi: seed, lo: lo}
	r.src = rand.New(rand.NewPCG(seed, lo))
	return r
}

// splitmix64 advances *x and returns the next SplitMix64 output. It is the
// standard seeding PRNG from Steele et al., used here only to expand seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Child derives the next independent child stream. Children are numbered in
// derivation order, so the k-th child of a given RNG is the same in every
// run regardless of how much randomness the parent consumed in between.
func (r *RNG) Child() *RNG {
	r.childs++
	return ChildAt(r.hi, r.childs-1)
}

// ChildAt returns the k-th child stream (0-based) of the given seed
// material without constructing or advancing a parent: ChildAt(seed, k)
// equals the (k+1)-th Child() of NewRNG(seed). Parallel trial executors
// use it to hand trial k exactly the stream a sequential loop of Child
// calls would have produced, so parallel and sequential runs are
// bit-identical (see internal/runner).
//
// # Axis namespaces
//
// Child indices under one seed form a flat namespace, so every consumer
// that derives several streams from the same seed value must own a
// disjoint index range. The ranges in use today: internal/scenario draws
// workload streams at 1000+i, tap streams at 2000+i, gray-failure
// processes at 3000+i and flap schedules at 4000+i of the scenario seed;
// trace.PopShard owns the entire 0..65535 prefix-id range of its own
// shard seed. New subsystems that need generation/member/trial axes must
// NOT carve further ranges out of a seed they share with an existing
// consumer — they derive a fresh per-purpose seed first via PathSeed with
// a distinct leading purpose tag (see internal/advsearch), which makes the
// purpose part of the derivation path instead of an index-range
// convention. The cross-package alias test in internal/advsearch pins
// that these families never collide.
func ChildAt(seed uint64, k uint64) *RNG {
	mix := seed ^ (0x9e3779b97f4a7c15 * (k + 1))
	a := splitmix64(&mix)
	b := splitmix64(&mix)
	c := &RNG{hi: a, lo: b}
	c.src = rand.New(rand.NewPCG(a, b))
	return c
}

// ChildSeed returns the seed material of the k-th child stream: the word
// ChildAt(seed, k) uses as the child's own seed, so
// ChildAt(ChildSeed(s, a), b) is the b-th grandchild under axis a. It is
// the primitive behind PathSeed/ChildPath nested derivation.
func ChildSeed(seed uint64, k uint64) uint64 {
	mix := seed ^ (0x9e3779b97f4a7c15 * (k + 1))
	return splitmix64(&mix)
}

// PathSeed folds ChildSeed along a derivation path: each element descends
// one level of the seed tree, so (purpose, generation, member) style paths
// yield seeds that cannot alias flat ChildAt indices of the root — the
// purpose tag is consumed by its own derivation step rather than sharing
// the root's index namespace.
func PathSeed(seed uint64, path ...uint64) uint64 {
	for _, k := range path {
		seed = ChildSeed(seed, k)
	}
	return seed
}

// ChildPath returns the RNG at the end of a derivation path:
// ChildPath(s, a, b, c) == ChildAt(PathSeed(s, a, b), c), and a
// single-element path is exactly ChildAt. An empty path returns
// NewRNG(seed).
func ChildPath(seed uint64, path ...uint64) *RNG {
	if len(path) == 0 {
		return NewRNG(seed)
	}
	return ChildAt(PathSeed(seed, path[:len(path)-1]...), path[len(path)-1])
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Exp returns an exponential variate with the given mean. The mean must be
// positive.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp requires positive mean")
	}
	return r.src.ExpFloat64() * mean
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal (mu, sigma).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Uniform returns a uniform variate in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Shuffle permutes the n elements addressed by swap, as in rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }
