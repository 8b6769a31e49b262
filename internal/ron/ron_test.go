package ron

import (
	"math"
	"testing"

	"dui/internal/stats"
)

func TestOverlayConvergesToTruth(t *testing.T) {
	o := NewRandom(8, stats.NewRNG(1))
	for r := 0; r < 30; r++ {
		o.Probe(nil)
	}
	for i := 0; i < o.n; i++ {
		for j := 0; j < o.n; j++ {
			if i == j {
				continue
			}
			if math.Abs(o.est[i][j]-o.lat[i][j]) > 0.005 {
				t.Fatalf("estimate (%d,%d) = %v vs true %v", i, j, o.est[i][j], o.lat[i][j])
			}
		}
	}
}

func TestCleanRouteNearOptimal(t *testing.T) {
	o := NewRandom(10, stats.NewRNG(2))
	for r := 0; r < 30; r++ {
		o.Probe(nil)
	}
	for s := 0; s < o.n; s++ {
		for d := 0; d < o.n; d++ {
			if s == d {
				continue
			}
			got := o.DataLatency(s, d)
			// Optimal one-hop latency with ground truth.
			best := o.TrueLatency(s, d)
			for k := 0; k < o.n; k++ {
				if k == s || k == d {
					continue
				}
				if c := o.TrueLatency(s, k) + o.TrueLatency(k, d); c < best {
					best = c
				}
			}
			if got > best*1.1+0.001 {
				t.Fatalf("(%d,%d) latency %v vs optimal %v", s, d, got, best)
			}
		}
	}
}

// TestProbeDelayDivertsTraffic is the §3.2 attack: delaying only probes
// moves the data off the (perfectly healthy) direct path.
func TestProbeDelayDivertsTraffic(t *testing.T) {
	out := RunProbeAttack(3, func(o *Overlay) (ProbeTamper, int) {
		return DelayProbes(0, 1, 0.2), -1
	})
	if !out.Diverted {
		t.Fatal("traffic not diverted")
	}
	// Data now takes a genuinely longer path.
	if out.AttackedLatency <= out.DirectLatency {
		t.Fatalf("no latency inflation: %v vs direct %v", out.AttackedLatency, out.DirectLatency)
	}
	// The attacker touched only probes: a small fraction of packets.
	if out.TamperBudget > 0.05 {
		t.Fatalf("tamper budget too high: %v", out.TamperBudget)
	}
}

// TestProbeDropMarksPathDead: dropped probes look like a dead path.
func TestProbeDropMarksPathDead(t *testing.T) {
	out := RunProbeAttack(4, func(o *Overlay) (ProbeTamper, int) {
		return DropProbes(0, 1), -1
	})
	if !out.Diverted {
		t.Fatal("traffic not diverted off the 'dead' path")
	}
}

// TestSteerViaChosenIntermediate: the attacker funnels the victim's
// traffic through a node of her choice (e.g., one she can eavesdrop).
func TestSteerViaChosenIntermediate(t *testing.T) {
	// Pick the intermediate deterministically: node 5.
	out := RunProbeAttack(5, func(o *Overlay) (ProbeTamper, int) {
		return SteerVia(0, 1, 5, 0.2), 5
	})
	if !out.ViaAttacker {
		t.Fatal("traffic not steered through the attacker's intermediate")
	}
}

func TestAttackDeterministic(t *testing.T) {
	mk := func(o *Overlay) (ProbeTamper, int) { return DelayProbes(0, 1, 0.1), -1 }
	a := RunProbeAttack(6, mk)
	b := RunProbeAttack(6, mk)
	if a.AttackedLatency != b.AttackedLatency || a.TamperBudget != b.TamperBudget {
		t.Fatal("nondeterministic attack run")
	}
}
