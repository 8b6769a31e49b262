package bnn

import (
	"math/bits"

	"dui/internal/stats"
)

// AdversarialExample searches for a minimal-perturbation input that flips
// the victim network's decision: a greedy margin descent over the bits in
// mutable (the header bits the attacker can set freely — source port,
// flags, sizes — as opposed to bits the network fabric fixes). It returns
// the perturbed input and whether the decision flipped within budget
// flips.
func AdversarialExample(victim *Network, x Input, mutable uint64, budget int) (Input, bool) {
	orig := victim.Classify(x)
	cur := x
	for flips := 0; flips < budget; flips++ {
		if victim.Classify(cur) != orig {
			return cur, true
		}
		// Flip the mutable bit that moves the margin fastest toward the
		// boundary (sign depends on the original class).
		bestBit, bestDelta := -1, 0
		curMargin := victim.Margin(cur)
		for b := 0; b < victim.In; b++ {
			if mutable&(1<<b) == 0 {
				continue
			}
			cand := cur ^ (1 << b)
			m := victim.Margin(cand)
			delta := m - curMargin
			if orig {
				delta = -delta // want the margin to fall
			}
			if delta > bestDelta {
				bestDelta, bestBit = delta, b
			}
		}
		if bestBit < 0 {
			// Plateau: flip the first untried mutable bit to escape.
			for b := 0; b < victim.In; b++ {
				if mutable&(1<<b) != 0 && cur&(1<<b) == x&(1<<b) {
					bestBit = b
					break
				}
			}
			if bestBit < 0 {
				break
			}
		}
		cur ^= 1 << bestBit
	}
	return cur, victim.Classify(cur) != orig
}

// Hamming returns the number of differing bits between two inputs.
func Hamming(a, b Input) int { return bits.OnesCount64(uint64(a ^ b)) }

// EvasionRow summarizes one attack configuration.
type EvasionRow struct {
	Budget int
	// Crafted reports whether flips were margin-guided (vs random).
	Crafted bool
	// SuccessRate is the fraction of inputs whose decision flipped.
	SuccessRate float64
	// SemanticRate is the fraction of successful evasions that preserve
	// the ground-truth label (a true adversarial example, not a class
	// change).
	SemanticRate float64
	// MeanFlips is the average perturbation among successes.
	MeanFlips float64
}

// Experiment is the E7d setup: a teacher network defines ground truth, a
// student is trained on teacher-labelled data (the deployed in-network
// classifier), and the attacker perturbs inputs to evade the student
// while the teacher — the actual semantics — is unchanged.
type Experiment struct {
	Seed uint64
}

// The E7d network shape and training-set size. Every input bit is
// attacker-controllable.
const (
	expIn      int    = 24
	expHidden  int    = 12
	expSamples int    = 1500
	expMutable uint64 = 1<<expIn - 1
)

// Run trains the student and evaluates evasion at the given budgets.
func (e Experiment) Run(budgets []int) (studentAcc float64, rows []EvasionRow) {
	if e.Seed == 0 {
		e.Seed = 1
	}
	rng := stats.NewRNG(e.Seed)
	teacher := NewRandom(expIn, expHidden, rng.Child())
	xs := make([]Input, expSamples)
	ys := make([]bool, expSamples)
	sampleRNG := rng.Child()
	for i := range xs {
		xs[i] = Input(sampleRNG.Uint64() & (1<<expIn - 1))
		ys[i] = teacher.Classify(xs[i])
	}
	// Greedy hill climbing is initialization-sensitive: train a few
	// randomly initialized students and deploy the best.
	var student *Network
	for r := 0; r < 3; r++ {
		cand := NewRandom(expIn, expHidden, rng.Child())
		if acc := cand.Train(xs, ys, 12); acc > studentAcc {
			studentAcc = acc
			student = cand
		}
	}

	test := xs[:200]
	testY := ys[:200]
	randRNG := rng.Child()
	for _, budget := range budgets {
		for _, crafted := range []bool{false, true} {
			var succ, semantic, flips int
			for i, x := range test {
				var adv Input
				var ok bool
				if crafted {
					adv, ok = AdversarialExample(student, x, expMutable, budget)
				} else {
					adv = x
					for f := 0; f < budget; f++ {
						adv ^= 1 << randRNG.IntN(expIn)
					}
					ok = student.Classify(adv) != student.Classify(x)
				}
				if !ok {
					continue
				}
				succ++
				flips += Hamming(x, adv)
				if teacher.Classify(adv) == testY[i] {
					semantic++
				}
			}
			row := EvasionRow{Budget: budget, Crafted: crafted}
			row.SuccessRate = float64(succ) / float64(len(test))
			if succ > 0 {
				row.SemanticRate = float64(semantic) / float64(succ)
				row.MeanFlips = float64(flips) / float64(succ)
			}
			rows = append(rows, row)
		}
	}
	return studentAcc, rows
}
