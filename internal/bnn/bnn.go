// Package bnn implements an in-network binary neural network in the style
// of N2Net (Siracusano & Bifulco, 2018), one of the §3.2 case studies:
// the forward pass of a binarized classifier expressed entirely in the
// operations a programmable data plane offers — XOR, popcount, compare —
// so a switch can classify packets at line rate.
//
// The paper's observation: "neural networks are vulnerable to adversarial
// examples, and thus are particularly exposed in a setting where anyone
// can inject inputs over the Internet". The attacker fully controls the
// header bits the classifier reads, so crafting an adversarial example is
// a greedy walk over a handful of bit flips.
package bnn

import (
	"math/bits"

	"dui/internal/stats"
)

// Input is a binarized feature vector: bit i set means feature i = +1,
// clear means −1. At most 64 features.
type Input uint64

// Layer is one binarized fully-connected layer: each neuron holds a
// weight mask and fires (+1) when the XNOR-popcount dot product is
// non-negative — exactly the match-action-friendly formulation.
type Layer struct {
	// Weights[j] is neuron j's weight mask over the previous layer.
	Weights []uint64
	// In is the number of input bits the layer reads.
	In int
}

// forward computes the layer's output bits.
func (l *Layer) forward(x uint64) uint64 {
	var out uint64
	for j, w := range l.Weights {
		if l.fires(x, w) {
			out |= 1 << j
		}
	}
	return out
}

// fires reports whether a neuron with weight mask w outputs +1 on x: its
// dot product In − 2·popcount(x XOR w) over the {−1,+1} encoding is
// non-negative.
func (l *Layer) fires(x, w uint64) bool {
	mask := uint64(1)<<l.In - 1
	agree := l.In - bits.OnesCount64((x^w)&mask)
	return 2*agree-l.In >= 0
}

// margin returns the final neuron's raw dot product (decision margin).
func (l *Layer) margin(x uint64) int {
	mask := uint64(1)<<l.In - 1
	agree := l.In - bits.OnesCount64((x^l.Weights[0])&mask)
	return 2*agree - l.In
}

// Network is a two-layer BNN: In → Hidden → 1.
type Network struct {
	Hidden Layer
	Out    Layer
	// In is the input feature count.
	In int
}

// NewRandom returns a network with random binary weights (a "teacher"
// defining ground truth, or an initialization for training).
func NewRandom(in, hidden int, rng *stats.RNG) *Network {
	if in <= 0 || in > 64 || hidden <= 0 || hidden > 64 {
		panic("bnn: layer sizes must be in 1..64")
	}
	n := &Network{In: in}
	n.Hidden = Layer{In: in, Weights: make([]uint64, hidden)}
	for j := range n.Hidden.Weights {
		n.Hidden.Weights[j] = rng.Uint64()
	}
	n.Out = Layer{In: hidden, Weights: []uint64{rng.Uint64()}}
	return n
}

// Classify returns the network's binary decision for x.
func (n *Network) Classify(x Input) bool {
	h := n.Hidden.forward(uint64(x))
	return n.Out.margin(h) >= 0
}

// Margin returns the output neuron's raw margin — the attacker's descent
// signal (per Kerckhoff she knows the weights; a black-box attacker can
// estimate it from decision flips).
func (n *Network) Margin(x Input) int {
	return n.Out.margin(n.Hidden.forward(uint64(x)))
}

// Accuracy measures agreement with labels over a dataset.
func (n *Network) Accuracy(xs []Input, ys []bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	ok := 0
	for i, x := range xs {
		if n.Classify(x) == ys[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(xs))
}

// Train fits the network to (xs, ys) by greedy weight-bit hill climbing:
// repeatedly flip the single weight bit that improves training accuracy
// the most, until no flip helps. Simple, deterministic, and sufficient
// for the small data-plane-scale networks this package models.
//
// Each sample's hidden-layer output is cached, so a trial flip of one
// hidden weight bit re-evaluates that one neuron per sample, and a trial
// flip of an output weight bit re-evaluates only the output neuron. The
// flips, their order and every accuracy compared are those of
// re-classifying the whole set with Accuracy after each flip.
func (n *Network) Train(xs []Input, ys []bool, maxPasses int) float64 {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	hs := make([]uint64, len(xs))    // hidden output per sample
	trial := make([]uint64, len(xs)) // hidden outputs under a trial flip
	for i, x := range xs {
		hs[i] = n.Hidden.forward(uint64(x))
	}
	accuracy := func(hs []uint64) float64 {
		if len(hs) == 0 {
			return 0
		}
		ok := 0
		for i, h := range hs {
			if (n.Out.margin(h) >= 0) == ys[i] {
				ok++
			}
		}
		return float64(ok) / float64(len(hs))
	}
	best := accuracy(hs)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for j := range n.Hidden.Weights {
			w := &n.Hidden.Weights[j]
			bit := uint64(1) << j
			for b := 0; b < n.Hidden.In; b++ {
				*w ^= 1 << b
				for i, x := range xs {
					h := hs[i] &^ bit
					if n.Hidden.fires(uint64(x), *w) {
						h |= bit
					}
					trial[i] = h
				}
				if acc := accuracy(trial); acc > best {
					best = acc
					improved = true
					hs, trial = trial, hs
				} else {
					*w ^= 1 << b // revert
				}
			}
		}
		for b := 0; b < n.Out.In; b++ {
			n.Out.Weights[0] ^= 1 << b
			if acc := accuracy(hs); acc > best {
				best = acc
				improved = true
			} else {
				n.Out.Weights[0] ^= 1 << b // revert
			}
		}
		if !improved {
			break
		}
	}
	return best
}
