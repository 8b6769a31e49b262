package blink

import (
	"testing"

	"dui/internal/stats"
)

// TestLegitimateFailover checks Blink's intended behaviour: a real link
// failure is detected from genuine TCP retransmissions and the prefix is
// rerouted to the backup within about a second, after which flows recover.
func TestLegitimateFailover(t *testing.T) {
	res := RunFailover(FailoverConfig{FailAt: 20, Duration: 45})
	if !res.Rerouted {
		t.Fatal("real failure not detected")
	}
	if res.DetectionLatency < 0 || res.DetectionLatency > 3 {
		t.Fatalf("detection latency = %v s", res.DetectionLatency)
	}
	if res.RecoveredFlows < res.Config.Flows*8/10 {
		t.Fatalf("only %d/%d flows recovered", res.RecoveredFlows, res.Config.Flows)
	}
	if len(res.RetransGaps) == 0 {
		t.Fatal("no retransmission gaps observed")
	}
	// Genuine gaps are RTO-shaped: bounded below by RTOmin (0.2s).
	for _, g := range res.RetransGaps {
		if g < 0.15 {
			t.Fatalf("retransmission gap %v below RTO floor", g)
		}
	}
}

// TestNoFalsePositiveWithoutFailure checks that a clean run never
// reroutes.
func TestNoFalsePositiveWithoutFailure(t *testing.T) {
	res := RunFailover(FailoverConfig{FailAt: 0, Duration: 40})
	if res.Rerouted {
		t.Fatalf("false reroute at %v", res.RerouteTime)
	}
}

// TestHijack runs the E3 attack end to end: the attacker's always-active
// flows take over the sample, the fake retransmission storm triggers a
// reroute onto the attacker path, and victim traffic flows through the
// attacker's router afterwards.
func TestHijack(t *testing.T) {
	res := RunHijack(HijackConfig{Seed: 4})
	if res.MaliciousCellsAtTrigger < res.Config.Blink.Threshold() {
		t.Fatalf("attacker held only %d cells at trigger", res.MaliciousCellsAtTrigger)
	}
	if !res.Rerouted {
		t.Fatal("attack did not cause a reroute")
	}
	if res.Latency < 0 || res.Latency > 5 {
		t.Fatalf("reroute latency = %v", res.Latency)
	}
	if res.HijackedPackets == 0 {
		t.Fatal("no victim traffic crossed the attacker router")
	}
}

// TestHijackNeedsMajority verifies the attack fails when the attacker
// cannot reach the majority before triggering (too few flows, too early).
func TestHijackNeedsMajority(t *testing.T) {
	res := RunHijack(HijackConfig{
		MalFlows:  8, // qm = 0.02 against 400 legit flows: far too few
		TriggerAt: 30,
		Duration:  60,
		Seed:      5,
	})
	if res.Rerouted {
		t.Fatal("attack succeeded without sample majority")
	}
}

// TestHijackDeterministic pins the experiment to its seed.
func TestHijackDeterministic(t *testing.T) {
	a := RunHijack(HijackConfig{Seed: 6, Duration: 120, TriggerAt: 90})
	b := RunHijack(HijackConfig{Seed: 6, Duration: 120, TriggerAt: 90})
	if a.MaliciousCellsAtTrigger != b.MaliciousCellsAtTrigger ||
		a.RerouteTime != b.RerouteTime || a.HijackedPackets != b.HijackedPackets {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestAttackOccupancyGrowsWithQm is the theory's central monotonicity on
// the simulated pipeline.
func TestAttackOccupancyGrowsWithQm(t *testing.T) {
	base := stats.NewRNG(8)
	occupancy := func(mal int) int {
		cfg := HijackConfig{
			MalFlows: mal, TriggerAt: 100, Duration: 101, Seed: base.Uint64() | 1,
		}
		return RunHijack(cfg).MaliciousCellsAtTrigger
	}
	lo := occupancy(20)
	hi := occupancy(120)
	if hi <= lo {
		t.Fatalf("occupancy not increasing with attacker flows: %d vs %d", lo, hi)
	}
}
