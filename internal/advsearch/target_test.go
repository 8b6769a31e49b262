package advsearch

import (
	"reflect"
	"testing"
)

// quickBlink returns a small, test-sized Blink target: short scenarios
// and a modest flow cap keep each evaluation (a double run under
// RunChecked) in the low tens of milliseconds.
func quickBlink(guarded bool, maxRisk float64) *BlinkTarget {
	return &BlinkTarget{Guarded: guarded, GuardMaxRisk: maxRisk, Duration: 4, MaxFlows: 64}
}

// strongStorm is a hand-built obviously-sufficient attack vector for the
// quick target: a large pool storming early, no mimicry, no tap.
func strongStorm() Vector {
	return Vector{64, 20, 0.5, 3, 0, 0, 0}
}

func TestBlinkTargetFlipsOnStrongStorm(t *testing.T) {
	tgt := quickBlink(false, 0)
	out := tgt.Evaluate(strongStorm(), 11)
	if !out.Flipped {
		t.Fatalf("strong storm did not force a reroute: %+v", out)
	}
	if out.Cost <= 0 {
		t.Fatalf("flip with zero cost: %+v", out)
	}
	// A tiny pool must not flip, and must land strictly inside (0, 1)
	// progress so the search has a gradient.
	weak := tgt.Evaluate(Vector{4, 0.5, 0.5, 3, 0, 0, 0}, 11)
	if weak.Flipped {
		t.Fatalf("4 flows at 0.5 pps flipped the deployment: %+v", weak)
	}
	if weak.Progress < 0 || weak.Progress >= 1 {
		t.Fatalf("weak storm progress %v outside [0, 1)", weak.Progress)
	}
}

// TestBlinkGuardRaisesTheBar pins the §5 claim at the search interface:
// the naive storm that flips the unguarded deployment is vetoed by the
// guard, while the same storm with MimicRTO set (the adaptive attacker)
// still gets through.
func TestBlinkGuardRaisesTheBar(t *testing.T) {
	guarded := quickBlink(true, 0)
	naive := guarded.Evaluate(strongStorm(), 11)
	if naive.Flipped {
		t.Fatalf("guard failed to veto the naive storm: %+v", naive)
	}
	mimic := strongStorm()
	mimic[4] = 1
	adaptive := guarded.Evaluate(mimic, 11)
	if !adaptive.Flipped {
		t.Fatalf("RTO-mimicking storm should evade the RTO-plausibility guard: %+v", adaptive)
	}
}

// TestSearchFindsPlantedGap is the satellite acceptance test: a
// deliberately weakened guard (MaxRisk > 1 never vetoes — the knob
// supervisor.BlinkGuard.MaxRisk documents) must be found by a small-budget
// search, and the minimal flipping input must be stable across reruns.
func TestSearchFindsPlantedGap(t *testing.T) {
	tgt := quickBlink(true, 2)
	cfg := Config{Seed: 4, Generations: 2, Pop: 6, Workers: 2}
	res := CEM{}.Search(tgt, cfg)
	if res.Best == nil || !res.Best.Outcome.Flipped {
		t.Fatalf("search missed the planted gap within %d evals: best %+v", res.Evals, res.Best)
	}
	again := CEM{}.Search(tgt, cfg)
	if !reflect.DeepEqual(res.Best, again.Best) {
		t.Fatalf("minimal flipping input unstable across reruns:\n%+v\n%+v", res.Best, again.Best)
	}
}

func TestPytheasTargetFlipAndGuard(t *testing.T) {
	// A hefty botnet with amplified reports flips the unguarded group.
	x := Vector{0.2, 4, 0.2, 4.8}
	open := NewPytheasTarget(false).Evaluate(x, 13)
	if !open.Flipped {
		t.Fatalf("20%% botnet at 4x reports failed against the unguarded group: %+v", open)
	}
	if open.Cost != 0.2*300*4 {
		t.Fatalf("cost %v != bots*mult", open.Cost)
	}
	// The guarded group (dedup + MAD filtering) resists the same attack.
	guarded := NewPytheasTarget(true).Evaluate(x, 13)
	if guarded.Flipped {
		t.Fatalf("input-quality defenses lost to the same botnet: %+v", guarded)
	}
}

func TestPCCTargetFlips(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second PCC simulations")
	}
	tgt := NewPCCTarget(false)
	// The paper's equalizer configuration: default margins, active from
	// the start.
	out := tgt.Evaluate(Vector{0.004, 0.03, 0}, 17)
	if !out.Flipped {
		t.Fatalf("default equalizer failed to collapse the rate: %+v", out)
	}
	if out.Cost <= 0 || out.Cost > 15 {
		t.Fatalf("drop budget %v%% outside the small-fraction regime", out.Cost)
	}
	// Starting the attack in the last seconds cannot collapse the
	// late-window mean.
	late := tgt.Evaluate(Vector{0.004, 0.03, 24}, 17)
	if late.Cost >= out.Cost {
		t.Fatalf("late start should spend less: %v >= %v", late.Cost, out.Cost)
	}
}
