package bnn

import (
	"testing"
	"testing/quick"

	"dui/internal/stats"
)

func TestForwardDeterministic(t *testing.T) {
	n := NewRandom(24, 12, stats.NewRNG(1))
	x := Input(0xABCDE)
	if n.Classify(x) != n.Classify(x) {
		t.Fatal("classification not deterministic")
	}
}

func TestMarginSignMatchesClassification(t *testing.T) {
	n := NewRandom(24, 12, stats.NewRNG(2))
	if err := quick.Check(func(raw uint32) bool {
		x := Input(raw) & (1<<24 - 1)
		return (n.Margin(x) >= 0) == n.Classify(x)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNeuronDotProduct(t *testing.T) {
	// One neuron over 4 inputs with weights all +1 (mask 0b1111):
	// dot = 2*agreements - 4.
	l := Layer{In: 4, Weights: []uint64{0b1111}}
	for _, tc := range []struct {
		x    uint64
		want int
	}{
		{0b1111, 4}, {0b0000, -4}, {0b1100, 0}, {0b1000, -2},
	} {
		if got := l.margin(tc.x); got != tc.want {
			t.Fatalf("margin(%04b) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestTrainingLearnsTeacher(t *testing.T) {
	rng := stats.NewRNG(3)
	teacher := NewRandom(24, 12, rng.Child())
	xs := make([]Input, 1500)
	ys := make([]bool, 1500)
	sr := rng.Child()
	for i := range xs {
		xs[i] = Input(sr.Uint64() & (1<<24 - 1))
		ys[i] = teacher.Classify(xs[i])
	}
	student := NewRandom(24, 12, rng.Child())
	before := student.Accuracy(xs, ys)
	after := student.Train(xs, ys, 12)
	if after < before {
		t.Fatalf("training reduced accuracy: %v -> %v", before, after)
	}
	if after < 0.78 {
		t.Fatalf("student accuracy only %v", after)
	}
}

// TestAdversarialExamplesEvadeStudent is the §3.2 claim: a handful of
// attacker-controlled bit flips flips the in-network classifier.
func TestAdversarialExamplesEvadeStudent(t *testing.T) {
	acc, rows := Experiment{Seed: 4}.Run([]int{4})
	// Greedy bit-flip training plateaus around 80-85%% on the
	// teacher-student task — a perfectly representative deployed
	// classifier for the fragility experiment.
	if acc < 0.78 {
		t.Fatalf("student under-trained: %v", acc)
	}
	var crafted, random EvasionRow
	for _, r := range rows {
		if r.Crafted {
			crafted = r
		} else {
			random = r
		}
	}
	if crafted.SuccessRate < 0.7 {
		t.Fatalf("crafted evasion rate only %v", crafted.SuccessRate)
	}
	if crafted.SuccessRate < random.SuccessRate+0.2 {
		t.Fatalf("crafted (%v) not much better than random flips (%v)",
			crafted.SuccessRate, random.SuccessRate)
	}
	if crafted.MeanFlips > 4 {
		t.Fatalf("crafted attack needed %v flips", crafted.MeanFlips)
	}
	// Most successful evasions preserve ground truth: genuinely
	// adversarial, not a semantic class change.
	if crafted.SemanticRate < 0.5 {
		t.Fatalf("semantic preservation only %v", crafted.SemanticRate)
	}
}

func TestAdversarialRespectsMutableMask(t *testing.T) {
	rng := stats.NewRNG(5)
	n := NewRandom(24, 12, rng.Child())
	mutable := uint64(0x0000FF) // only the low 8 bits are controllable
	for i := 0; i < 50; i++ {
		x := Input(rng.Uint64() & (1<<24 - 1))
		adv, _ := AdversarialExample(n, x, mutable, 6)
		if uint64(adv^x) & ^mutable != 0 {
			t.Fatalf("attack flipped immutable bits: %x -> %x", x, adv)
		}
	}
}

func TestEvasionSuccessGrowsWithBudget(t *testing.T) {
	_, rows := Experiment{Seed: 6}.Run([]int{1, 6})
	var lo, hi EvasionRow
	for _, r := range rows {
		if !r.Crafted {
			continue
		}
		if r.Budget == 1 {
			lo = r
		} else {
			hi = r
		}
	}
	if hi.SuccessRate < lo.SuccessRate {
		t.Fatalf("evasion not monotone in budget: %v -> %v", lo.SuccessRate, hi.SuccessRate)
	}
}

func TestHamming(t *testing.T) {
	if Hamming(0b1010, 0b0110) != 2 {
		t.Fatal("hamming")
	}
	if Hamming(5, 5) != 0 {
		t.Fatal("identical inputs")
	}
}

func TestNewRandomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRandom(0, 4, stats.NewRNG(1))
}

// trainNaive is the from-scratch trainer Train must reproduce: every
// trial flip re-classifies the whole set through Accuracy.
func trainNaive(n *Network, xs []Input, ys []bool, maxPasses int) float64 {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	best := n.Accuracy(xs, ys)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		flip := func(w *uint64, bit int) {
			*w ^= 1 << bit
			if acc := n.Accuracy(xs, ys); acc > best {
				best = acc
				improved = true
			} else {
				*w ^= 1 << bit
			}
		}
		for j := range n.Hidden.Weights {
			for b := 0; b < n.Hidden.In; b++ {
				flip(&n.Hidden.Weights[j], b)
			}
		}
		for b := 0; b < n.Out.In; b++ {
			flip(&n.Out.Weights[0], b)
		}
		if !improved {
			break
		}
	}
	return best
}

// TestTrainMatchesNaive pins the activation-cached trainer to the naive
// one: the same final weights and the same returned accuracy over seeds,
// shapes, label noise, an empty set and defaulted pass counts.
func TestTrainMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		in, hidden, samples, passes int
		noise                       bool
	}{
		{24, 16, 300, 20, false},
		{24, 16, 300, 20, true},
		{24, 12, 150, 3, false},
		{8, 3, 40, 0, false},
		{5, 1, 17, -1, true},
		{64, 64, 30, 2, false},
		{24, 16, 0, 4, false},
		{12, 6, 0, 0, false},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := stats.NewRNG(seed)
			teacher := NewRandom(tc.in, tc.hidden, rng.Child())
			xs := make([]Input, tc.samples)
			ys := make([]bool, tc.samples)
			for i := range xs {
				xs[i] = Input(rng.Uint64() & (1<<tc.in - 1))
				ys[i] = teacher.Classify(xs[i])
				if tc.noise && rng.Bool(0.1) {
					ys[i] = !ys[i]
				}
			}
			a := NewRandom(tc.in, tc.hidden, rng.Child())
			b := &Network{In: a.In,
				Hidden: Layer{In: a.Hidden.In, Weights: append([]uint64(nil), a.Hidden.Weights...)},
				Out:    Layer{In: a.Out.In, Weights: append([]uint64(nil), a.Out.Weights...)},
			}
			got, want := a.Train(xs, ys, tc.passes), trainNaive(b, xs, ys, tc.passes)
			if got != want {
				t.Fatalf("%+v seed %d: accuracy %v, naive %v", tc, seed, got, want)
			}
			for j := range a.Hidden.Weights {
				if a.Hidden.Weights[j] != b.Hidden.Weights[j] {
					t.Fatalf("%+v seed %d: hidden weight %d differs", tc, seed, j)
				}
			}
			if a.Out.Weights[0] != b.Out.Weights[0] {
				t.Fatalf("%+v seed %d: output weights differ", tc, seed)
			}
		}
	}
}
