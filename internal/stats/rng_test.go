package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiverge(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestChildStreamsIndependentOfParentConsumption(t *testing.T) {
	// The k-th child must be identical no matter how much randomness the
	// parent consumed before deriving it.
	p1, p2 := NewRNG(7), NewRNG(7)
	for i := 0; i < 123; i++ {
		p2.Uint64() // consume from one parent only
	}
	c1, c2 := p1.Child(), p2.Child()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("child stream depends on parent consumption (draw %d)", i)
		}
	}
}

// TestChildAtMatchesChildSequence pins the equivalence parallel trial
// execution relies on: ChildAt(seed, k) is exactly the (k+1)-th Child()
// of NewRNG(seed), so a worker can reconstruct trial k's stream without
// deriving the k-1 streams before it.
func TestChildAtMatchesChildSequence(t *testing.T) {
	p := NewRNG(42)
	for k := uint64(0); k < 20; k++ {
		seq := p.Child()
		direct := ChildAt(42, k)
		for i := 0; i < 50; i++ {
			if seq.Uint64() != direct.Uint64() {
				t.Fatalf("ChildAt(42, %d) diverges from Child sequence at draw %d", k, i)
			}
		}
	}
}

// TestChildAtGrandchildren checks the equivalence holds one level down:
// children of a child RNG match ChildAt on the child's seed material.
func TestChildAtGrandchildren(t *testing.T) {
	child := ChildAt(7, 3)
	g1 := child.Child()
	g2 := ChildAt(child.hi, 0)
	for i := 0; i < 50; i++ {
		if g1.Uint64() != g2.Uint64() {
			t.Fatalf("grandchild streams diverge at draw %d", i)
		}
	}
}

func TestChildStreamsDistinct(t *testing.T) {
	p := NewRNG(7)
	c1, c2 := p.Child(), p.Child()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling child streams produced %d identical draws", same)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(3)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Exp(8.37))
	}
	if math.Abs(s.Mean()-8.37) > 0.1 {
		t.Fatalf("Exp(8.37) sample mean = %v", s.Mean())
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(6)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.LogNormal(1.0, 0.8)
	}
	med := Median(xs)
	want := math.Exp(1.0)
	if math.Abs(med-want)/want > 0.03 {
		t.Fatalf("LogNormal median = %v, want ~%v", med, want)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.0525) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.0525) > 0.004 {
		t.Fatalf("Bool(0.0525) frequency = %v", got)
	}
}

func TestExpPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Exp(0)
}
