package pcc

import (
	"math"
	"testing"

	"dui/internal/stats"
)

func TestAllegroUtilityShape(t *testing.T) {
	// Increasing in rate at zero loss.
	if Allegro(200, 0) <= Allegro(100, 0) {
		t.Fatal("utility not increasing in rate")
	}
	// Decreasing in loss at fixed rate.
	if Allegro(100, 0.02) >= Allegro(100, 0) {
		t.Fatal("utility not decreasing in loss")
	}
	// The 5% sigmoid cliff: beyond the cutoff, utility collapses.
	if Allegro(100, 0.10) > 0 {
		t.Fatalf("utility above cutoff = %v, want negative", Allegro(100, 0.10))
	}
	// Homogeneous degree 1 in rate (units cancel in comparisons).
	if math.Abs(Allegro(200, 0.01)-2*Allegro(100, 0.01)) > 1e-9 {
		t.Fatal("utility not homogeneous")
	}
}

func TestEqualizingDropTiesUtilities(t *testing.T) {
	for _, eps := range []float64{0.01, 0.03, 0.05} {
		fast, slow := 1+eps, 1-eps
		p := EqualizingDrop(Allegro, fast, slow, 0)
		if p <= 0 || p >= 0.06 {
			t.Fatalf("eps=%v: drop %v outside the stealthy band", eps, p)
		}
		got := Allegro(fast, p)
		want := Allegro(slow, 0)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("eps=%v: utilities not tied: %v vs %v", eps, got, want)
		}
	}
}

func TestEqualizingDropZeroWhenNotFaster(t *testing.T) {
	if EqualizingDrop(Allegro, 0.99, 1.01, 0) != 0 {
		t.Fatal("drop for slower trial must be zero")
	}
	if EqualizingDrop(Allegro, 1, 1, 0) != 0 {
		t.Fatal("drop for equal rates must be zero")
	}
}

func TestEqualizingDropCompoundsBaseLoss(t *testing.T) {
	p0 := EqualizingDrop(Allegro, 1.05, 0.95, 0)
	p1 := EqualizingDrop(Allegro, 1.05, 0.95, 0.01)
	if p1 >= p0 {
		t.Fatalf("with base loss already hurting the fast trial, extra drop should shrink: %v vs %v", p1, p0)
	}
}

// TestCleanConvergence checks PCC's own promise: without an attacker a
// flow climbs from its start rate to near the bottleneck capacity.
func TestCleanConvergence(t *testing.T) {
	res := RunOscillation(OscConfig{Duration: 90, Seed: 2})
	if len(res.Flows) != 1 {
		t.Fatal("flow count")
	}
	f := res.Flows[0]
	if f.MeanRateLate < 0.7*res.Config.CapacityPPS || f.MeanRateLate > 1.3*res.Config.CapacityPPS {
		t.Fatalf("late rate %v, want near capacity %v", f.MeanRateLate, res.Config.CapacityPPS)
	}
	if res.DropFraction != 0 {
		t.Fatal("no attacker in clean run")
	}
}

// TestAttackPreventsConvergence is the §4.2 headline: under the equalizer
// the flow stays pinned near its start rate instead of climbing to
// capacity, keeps fluctuating, and the attacker pays only a tiny drop
// budget.
func TestAttackPreventsConvergence(t *testing.T) {
	clean := RunOscillation(OscConfig{Duration: 90, Seed: 2})
	attacked := RunOscillation(OscConfig{Duration: 90, Seed: 2, Attack: true})
	f := attacked.Flows[0]
	if f.MeanRateLate > 0.4*clean.Flows[0].MeanRateLate {
		t.Fatalf("attacked flow converged anyway: %v vs clean %v", f.MeanRateLate, clean.Flows[0].MeanRateLate)
	}
	if f.OscAmplitude < 0.015 {
		t.Fatalf("no forced oscillation: amplitude %v", f.OscAmplitude)
	}
	// The flow never leaves the experiment loop — it keeps probing and
	// being punished, exactly "PCC's logic neutralized".
	if f.FinalState == Starting {
		t.Fatalf("flow stuck in startup, not in the experiment loop")
	}
	// The attack budget stays small — a few percent of packets at most.
	if attacked.DropFraction <= 0 || attacked.DropFraction > 0.08 {
		t.Fatalf("drop fraction = %v", attacked.DropFraction)
	}
}

// TestForcedOscillationModel pins the analytic §4.2 claim: with every
// trial tied, ε marches to the 5% cap and stays, so the flow fluctuates
// by ±5% forever.
func TestForcedOscillationModel(t *testing.T) {
	trace, amp := ForcedOscillation(0.05, 10)
	want := []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05}
	if len(trace) != len(want) {
		t.Fatalf("eps trace has %d rounds, want %d", len(trace), len(want))
	}
	for i := range want {
		if math.Abs(trace[i]-want[i]) > 1e-12 {
			t.Fatalf("eps trace[%d] = %v, want %v", i, trace[i], want[i])
		}
	}
	if amp != 0.10 {
		t.Fatalf("amplitude = %v, want peak-to-peak 10%%", amp)
	}
	synced, unsynced := DestinationFluctuation(100, 0.05)
	if synced != 0.10 {
		t.Fatalf("synced fleet fluctuation = %v", synced)
	}
	if unsynced >= synced || unsynced <= 0 {
		t.Fatalf("unsynced fleet fluctuation = %v", unsynced)
	}
}

// TestFleetFluctuation: across many flows to one destination the attack
// both depresses and destabilizes the aggregate arrival rate.
func TestFleetFluctuation(t *testing.T) {
	clean := RunOscillation(OscConfig{Flows: 6, Duration: 80, Seed: 3})
	attacked := RunOscillation(OscConfig{Flows: 6, Duration: 80, Seed: 3, Attack: true})
	// Aggregate throughput collapses.
	cleanAgg := lateMean(clean.AggSeries, 80*2/3.0)
	attAgg := lateMean(attacked.AggSeries, 80*2/3.0)
	if attAgg > 0.5*cleanAgg {
		t.Fatalf("aggregate not depressed: %v vs %v", attAgg, cleanAgg)
	}
	// Relative fluctuation grows.
	if attacked.AggCV <= clean.AggCV {
		t.Fatalf("aggregate CV not increased: %v vs %v", attacked.AggCV, clean.AggCV)
	}
}

func lateMean(s *stats.Series, from float64) float64 {
	var sum stats.Summary
	for i := range s.Values {
		if s.Time(i) >= from {
			sum.Add(s.Values[i])
		}
	}
	return sum.Mean()
}

func TestOscillationDeterministic(t *testing.T) {
	a := RunOscillation(OscConfig{Duration: 40, Seed: 7, Attack: true})
	b := RunOscillation(OscConfig{Duration: 40, Seed: 7, Attack: true})
	if a.Flows[0].MeanRateLate != b.Flows[0].MeanRateLate || a.DropFraction != b.DropFraction {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Flows[0], b.Flows[0])
	}
}

func TestStateString(t *testing.T) {
	if Starting.String() != "starting" || Deciding.String() != "deciding" || Adjusting.String() != "adjusting" {
		t.Fatal("state names")
	}
}
