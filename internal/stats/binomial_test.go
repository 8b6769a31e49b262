package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialPMFSumsToOne(t *testing.T) {
	if err := quick.Check(func(n uint8, pRaw uint16) bool {
		b := Binomial{N: int(n%200) + 1, P: float64(pRaw) / 65535}
		sum := 0.0
		for k := 0; k <= b.N; k++ {
			sum += b.PMF(k)
		}
		return math.Abs(sum-1) < 1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialCDFMonotone(t *testing.T) {
	b := Binomial{N: 64, P: 0.37}
	prev := -1.0
	for k := 0; k <= b.N; k++ {
		c := b.CDF(k)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at k=%d: %v < %v", k, c, prev)
		}
		prev = c
	}
	if math.Abs(b.CDF(b.N)-1) > 1e-9 {
		t.Fatalf("CDF(N) = %v", b.CDF(b.N))
	}
}

func TestBinomialQuantileInvertsCDF(t *testing.T) {
	b := Binomial{N: 64, P: 0.5}
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		k := b.Quantile(q)
		if b.CDF(k) < q-1e-9 {
			t.Fatalf("CDF(Quantile(%v)) = %v < %v", q, b.CDF(k), q)
		}
		if k > 0 && b.CDF(k-1) >= q {
			t.Fatalf("Quantile(%v) = %d not minimal", q, k)
		}
	}
}

func TestBinomialMeanVariance(t *testing.T) {
	b := Binomial{N: 64, P: 0.0525}
	if math.Abs(b.Mean()-64*0.0525) > 1e-12 {
		t.Fatal("mean mismatch")
	}
	// The PMF's second central moment is N*P*(1-P).
	v := 0.0
	for k := 0; k <= b.N; k++ {
		d := float64(k) - b.Mean()
		v += d * d * b.PMF(k)
	}
	if math.Abs(v-64*0.0525*0.9475) > 1e-9 {
		t.Fatalf("variance = %v", v)
	}
}

func TestBinomialEdgeProbabilities(t *testing.T) {
	b0 := Binomial{N: 10, P: 0}
	if b0.PMF(0) != 1 || b0.PMF(1) != 0 {
		t.Fatal("P=0 PMF wrong")
	}
	b1 := Binomial{N: 10, P: 1}
	if b1.PMF(10) != 1 || b1.PMF(9) != 0 {
		t.Fatal("P=1 PMF wrong")
	}
	if b1.Survival(0) != 1 {
		t.Fatal("Survival(0) must be 1")
	}
}

// TestPaperFig2Operating checks the exact model of §3.1 at the paper's
// parameters: p = 1-(1-qm)^(tB/tR) with qm=0.0525, tR=8.37s. At the end of
// the 8.5-minute budget the expected number of malicious cells approaches
// ~62 of 64, and the probability of holding a majority (>=32) is
// essentially 1.
func TestPaperFig2Operating(t *testing.T) {
	qm, tR, tB := 0.0525, 8.37, 510.0
	p := 1 - math.Pow(1-qm, tB/tR)
	b := Binomial{N: 64, P: p}
	if b.Mean() < 60 {
		t.Fatalf("end-of-budget mean = %v, want > 60", b.Mean())
	}
	if b.Survival(32) < 0.9999 {
		t.Fatalf("P(X>=32) = %v at end of budget", b.Survival(32))
	}
	// At t=100s the majority is not yet certain; at t=250s it is near
	// certain. This brackets the paper's "after ~200s" claim.
	pEarly := 1 - math.Pow(1-qm, 100/tR)
	pLate := 1 - math.Pow(1-qm, 250/tR)
	if (Binomial{N: 64, P: pEarly}).Survival(32) > 0.5 {
		t.Fatalf("majority too likely at t=100s")
	}
	if (Binomial{N: 64, P: pLate}).Survival(32) < 0.99 {
		t.Fatalf("majority not reached by t=250s")
	}
}

func TestHarmonicDiff(t *testing.T) {
	if HarmonicDiff(1, 0) != 1 {
		t.Fatal("H(1)-H(0) != 1")
	}
	// H(64)-H(32) = sum_{33..64} 1/i ~ ln(2) for large n.
	d := HarmonicDiff(64, 32)
	if math.Abs(d-0.68539) > 1e-4 {
		t.Fatalf("H(64)-H(32) = %v", d)
	}
	if HarmonicDiff(32, 64) != -d {
		t.Fatal("antisymmetry violated")
	}
}

func TestLogChoose(t *testing.T) {
	if math.Abs(math.Exp(logChoose(5, 2))-10) > 1e-9 {
		t.Fatalf("C(5,2) = %v", math.Exp(logChoose(5, 2)))
	}
	if !math.IsInf(logChoose(3, 5), -1) {
		t.Fatal("C(3,5) should be log(0)")
	}
}
