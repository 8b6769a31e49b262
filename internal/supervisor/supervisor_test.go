package supervisor

import (
	"testing"

	"dui/internal/blink"
	"dui/internal/pcc"
	"dui/internal/stats"
)

func TestRTOModelSyntheticVerdicts(t *testing.T) {
	g := &BlinkGuard{Model: NewRTOModel([]float64{0.02, 0.03, 0.05}, 0.2)}
	// Genuine failure: gaps at RTO (~0.2s) and backoff stages with
	// residual-spacing jitter.
	var genuine []float64
	rng := stats.NewRNG(1)
	for i := 0; i < 200; i++ {
		base := 0.2
		switch i % 10 {
		case 8:
			base = 0.4
		case 9:
			base = 0.8
		}
		genuine = append(genuine, base+0.2*rng.Float64())
	}
	if v := g.Check(genuine); !v.Plausible {
		t.Fatalf("genuine failure rejected: %v", v)
	}
	// Attack pacing: ~0.5s ±10% gaps.
	var attack []float64
	for i := 0; i < 200; i++ {
		attack = append(attack, 0.45+0.1*rng.Float64())
	}
	if v := g.Check(attack); v.Plausible {
		t.Fatalf("attack pacing accepted: %v", v)
	}
	// No data: benign by default.
	if v := g.Check(nil); !v.Plausible {
		t.Fatalf("empty evidence rejected: %v", v)
	}
}

// TestGuardedFailoverStillReroutes: the supervisor must not break Blink's
// legitimate function (§5 criterion ii: no impact on the driver's job).
func TestGuardedFailoverStillReroutes(t *testing.T) {
	model := DefaultRTOModel()
	var guard *BlinkGuard
	res := blink.RunFailover(blink.FailoverConfig{
		FailAt: 20, Duration: 45,
		Hook: func(p *blink.Pipeline) { guard = GuardPipeline(p, model) },
	})
	if !res.Rerouted {
		t.Fatalf("guard blocked a genuine failover (vetoes=%d, verdicts=%v)",
			res.VetoedReroutes, guard.Verdicts)
	}
	if res.VetoedReroutes != 0 {
		t.Fatalf("genuine failover vetoed %d times", res.VetoedReroutes)
	}
	if res.DetectionLatency > 3 {
		t.Fatalf("guard slowed detection: %v s", res.DetectionLatency)
	}
}

// TestGuardedHijackBlocked: the same supervisor stops the §3.1 attack —
// the fake retransmission storm's timing does not match any plausible RTO
// distribution.
func TestGuardedHijackBlocked(t *testing.T) {
	model := DefaultRTOModel()
	var guard *BlinkGuard
	res := blink.RunHijack(blink.HijackConfig{
		Seed: 4,
		Hook: func(p *blink.Pipeline) { guard = GuardPipeline(p, model) },
	})
	if res.MaliciousCellsAtTrigger < res.Config.Blink.Threshold {
		t.Fatalf("attack setup failed: %d cells", res.MaliciousCellsAtTrigger)
	}
	if res.Rerouted {
		t.Fatalf("hijack succeeded despite the guard (verdicts=%v)", guard.Verdicts)
	}
	if res.VetoedReroutes == 0 {
		t.Fatal("guard never fired")
	}
	if res.HijackedPackets != 0 {
		t.Fatalf("%d packets crossed the attacker router", res.HijackedPackets)
	}
}

func TestPytheasGuardDetectsPoisonedGroup(t *testing.T) {
	rng := stats.NewRNG(2)
	var clean []float64
	for i := 0; i < 200; i++ {
		clean = append(clean, 4.5+0.3*rng.NormFloat64())
	}
	g := &PytheasGuard{K: 4}
	if v := g.Check(clean); !v.Plausible {
		t.Fatalf("clean group flagged: %v", v)
	}
	// 15% coherent low-ballers — the §4.1 botnet signature.
	poisoned := append([]float64(nil), clean...)
	for i := 0; i < 30; i++ {
		poisoned[i] = 0.2
	}
	if v := g.Check(poisoned); v.Plausible {
		t.Fatalf("poisoned group passed: %v", v)
	}
	if v := g.Check(clean[:5]); !v.Plausible {
		t.Fatal("insufficient data must default to plausible")
	}
	if c := g.Cost(); c != (GuardCost{Checks: 3, Flags: 1}) {
		t.Fatalf("cost %+v, want 3 checks and 1 flag", c)
	}
}

func TestPCCGuardDetectsEqualizer(t *testing.T) {
	clean := pcc.RunOscillation(pcc.OscConfig{Duration: 90, Seed: 2})
	attacked := pcc.RunOscillation(pcc.OscConfig{Duration: 90, Seed: 2, Attack: true})
	g := &PCCGuard{}
	if v := g.Check(clean.Records); !v.Plausible {
		t.Fatalf("clean PCC flagged: %v", v)
	}
	if v := g.Check(attacked.Records); v.Plausible {
		t.Fatalf("equalizer not detected: %v", v)
	}
}

func TestEpsRangeBoundsForcedOscillation(t *testing.T) {
	// Countermeasure III: the granted ε range directly caps the forced
	// oscillation amplitude.
	for _, maxEps := range []float64{0.01, 0.03, 0.05} {
		r := EpsRange(maxEps)
		cfg := ClampedPCCConfig(pcc.Config{EpsMin: 0.01, EpsMax: 0.05}, r)
		if cfg.EpsMax > maxEps {
			t.Fatalf("clamp failed: %v", cfg.EpsMax)
		}
		_, amp := pcc.ForcedOscillation(cfg.EpsMin, cfg.EpsMax, 20)
		if amp > 2*maxEps+1e-12 {
			t.Fatalf("amplitude %v exceeds granted range %v", amp, 2*maxEps)
		}
	}
}

func TestRangeAndVerdictHelpers(t *testing.T) {
	r := Range{Min: 1, Max: 3}
	if r.Clamp(0) != 1 || r.Clamp(5) != 3 || r.Clamp(2) != 2 {
		t.Fatal("clamp")
	}
	if !r.Contains(2) || r.Contains(4) {
		t.Fatal("contains")
	}
	v := Verdict{Plausible: false, Risk: 0.9, Reason: "x"}
	if v.String() == "" {
		t.Fatal("verdict string")
	}
}

// TestAdaptiveAttackerBeatsGuard is the honest limit of the §5 Blink
// defense, and its open research question: an attacker who paces her fake
// retransmission storm like genuine RTO backoff passes the timing
// plausibility check. In this environment the RTO floor (a public
// protocol constant) dominates the legitimate RTO distribution, so
// mimicry needs no per-flow RTT knowledge — the defense is only as strong
// as the entropy of the RTT distribution it models ("information that is
// hard to obtain for an attacker with host or MitM privileges" only when
// RTTs actually vary).
func TestAdaptiveAttackerBeatsGuard(t *testing.T) {
	model := DefaultRTOModel()
	hook := func(p *blink.Pipeline) { GuardPipeline(p, model) }
	naive := blink.RunHijack(blink.HijackConfig{Seed: 4, Hook: hook})
	if naive.Rerouted {
		t.Fatal("naively paced attack should be vetoed")
	}
	adaptive := blink.RunHijack(blink.HijackConfig{Seed: 4, Hook: hook, MimicRTO: true})
	if !adaptive.Rerouted {
		t.Fatalf("RTO-mimicking attack should pass the timing check (vetoes=%d)",
			adaptive.VetoedReroutes)
	}
}
