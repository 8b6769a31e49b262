package blink

import (
	"math"
	"testing"
	"testing/quick"
)

var paperModel = Model{N: 64, Threshold: 32, TR: 8.37, Qm: 0.0525}

func TestOccupationProbShape(t *testing.T) {
	m := paperModel
	if m.OccupationProb(0) != 0 {
		t.Fatal("p(0) != 0")
	}
	prev := 0.0
	for _, tt := range []float64{1, 10, 100, 510, 5000} {
		p := m.OccupationProb(tt)
		if p <= prev || p >= 1 {
			t.Fatalf("p(%v) = %v not strictly increasing in (0,1)", tt, p)
		}
		prev = p
	}
	// One mean residence: p(tR) = qm by construction.
	if math.Abs(m.OccupationProb(m.TR)-m.Qm) > 1e-12 {
		t.Fatalf("p(tR) = %v, want qm", m.OccupationProb(m.TR))
	}
}

func TestPaperEndOfBudgetNumbers(t *testing.T) {
	m := paperModel
	// At the end of the 8.5 min budget the sample is almost entirely
	// malicious (Fig 2 saturates near the top of the 64-cell axis).
	if mean := m.At(510).Mean(); mean < 58 || mean > 64 {
		t.Fatalf("mean at tB = %v", mean)
	}
	// Majority near-certain well before the reset.
	if p := m.MajorityProb(250); p < 0.99 {
		t.Fatalf("majority prob at 250s = %v", p)
	}
	if p := m.MajorityProb(60); p > 0.05 {
		t.Fatalf("majority prob at 60s = %v (too early)", p)
	}
}

func TestExpectedHittingTimeBrackets(t *testing.T) {
	m := paperModel
	e := m.ExpectedHittingTime()
	// The closed-form order-statistic expectation for the paper's
	// parameters is ~106 s; the paper's caption quotes 172 s (see
	// DESIGN.md). Assert our model's own self-consistency: the mean
	// hitting time must lie between the 5th and 95th quantiles, and the
	// mean curve must cross the threshold near it.
	q5, q95 := m.HittingTimeQuantile(0.05), m.HittingTimeQuantile(0.95)
	if !(q5 < e && e < q95) {
		t.Fatalf("expected hit %v outside [%v, %v]", e, q5, q95)
	}
	if e < 80 || e > 140 {
		t.Fatalf("expected hitting time = %v, want ~106", e)
	}
	cross, ok := m.MeanCurve(500, 0.5).FirstCrossing(32)
	if !ok || math.Abs(cross-e) > 15 {
		t.Fatalf("mean-curve crossing %v vs expectation %v", cross, e)
	}
}

func TestQuantileCurvesEnvelopeMean(t *testing.T) {
	m := paperModel
	mean := m.MeanCurve(500, 10)
	p5 := m.QuantileCurve(0.05, 500, 10)
	p95 := m.QuantileCurve(0.95, 500, 10)
	for i := range mean.Values {
		if p5.Values[i] > mean.Values[i]+1 || p95.Values[i] < mean.Values[i]-1 {
			t.Fatalf("envelope violated at %v: p5=%v mean=%v p95=%v",
				mean.Time(i), p5.Values[i], mean.Values[i], p95.Values[i])
		}
	}
}

func TestRequiredQmMonotoneInTR(t *testing.T) {
	// §3.1: "With longer tR, the attack is harder, i.e., requires higher
	// qm."
	prev := 0.0
	for _, tr := range []float64{2, 5, 10, 20, 40} {
		qm := RequiredQm(64, 32, tr, 510)
		if qm <= prev {
			t.Fatalf("required qm not increasing: tR=%v qm=%v prev=%v", tr, qm, prev)
		}
		prev = qm
	}
}

func TestRequiredQmSufficient(t *testing.T) {
	if err := quick.Check(func(trRaw, bRaw uint16) bool {
		tr := 1 + float64(trRaw%400)/10  // 1..41 s
		budget := 60 + float64(bRaw%900) // 60..960 s
		qm := RequiredQm(64, 32, tr, budget)
		m := Model{N: 64, Threshold: 32, TR: tr, Qm: qm}
		return m.MajorityProb(budget) >= 0.95-1e-6
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRequiredQmAtPaperPoint(t *testing.T) {
	// At tR = 8.37 s and the full 510 s budget, qm = 0.0525 is more than
	// enough — the paper's example attack succeeds with margin.
	qm := RequiredQm(64, 32, 8.37, 510)
	if qm > 0.0525 {
		t.Fatalf("required qm %v exceeds the paper's 0.0525", qm)
	}
	if qm < 0.005 {
		t.Fatalf("required qm %v implausibly small", qm)
	}
}
