package supervisor

import (
	"testing"

	"dui/internal/blink"
	"dui/internal/faults"
	"dui/internal/fuzz"
	"dui/internal/scenario"
	"dui/internal/stats"
)

// TestGuardNeverVetoesGenuineFailovers is the supervisor's core safety
// property (§5 criterion ii), checked over a randomized sweep instead of
// one hand-picked configuration: whatever the flow count, selector size,
// or failure time, a genuine remote failure must never be vetoed — the
// guard may only cost detection latency, never the reroute itself. The
// earlier Coverage regression (an L1 distance reading a low-jitter gap
// concentration as implausible) slipped through exactly because only one
// configuration was pinned; this sweep would have caught it.
func TestGuardNeverVetoesGenuineFailovers(t *testing.T) {
	model := DefaultRTOModel()
	rng := stats.NewRNG(3)
	n := 10
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		cfg := blink.FailoverConfig{
			Blink:    blink.Config{Cells: []int{16, 32, 64}[rng.IntN(3)]},
			Flows:    60 + rng.IntN(140),
			FailAt:   8 + rng.Float64()*20,
			Duration: 45,
			Hook:     func(p *blink.Pipeline) { GuardPipeline(p, model) },
		}
		res := blink.RunFailover(cfg)
		if res.VetoedReroutes != 0 {
			t.Fatalf("config %d (cells=%d flows=%d failAt=%.1f): genuine failover vetoed %d times",
				i, cfg.Blink.Cells, cfg.Flows, cfg.FailAt, res.VetoedReroutes)
		}
		if !res.Rerouted {
			t.Fatalf("config %d (cells=%d flows=%d failAt=%.1f): no reroute — property vacuous",
				i, cfg.Blink.Cells, cfg.Flows, cfg.FailAt)
		}
	}
}

// adversarialize turns a generated Blink scenario into a §3.1 attack on
// its own deployment: every attack workload is aimed at the monitored
// victim, sized past the failure-inference threshold, and switched to an
// unconditional mid-run retransmission storm. Legitimate workloads are
// left untouched.
func adversarialize(s *scenario.Scenario) {
	victim := s.Blink.Victim
	other := -1
	for i, ns := range s.Nodes {
		if !ns.Router && i != victim {
			other = i
		}
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if w.Kind != scenario.KindAttack {
			continue
		}
		w.To = victim
		if w.From == victim {
			w.From = other
		}
		if w.Flows < s.Blink.Cells {
			w.Flows = s.Blink.Cells
		}
		w.Until = s.Duration
		w.RetransmitFrom = 0.25 * s.Duration
		w.MimicRTO = false
	}
}

// attackFree returns a copy of s with the attack workloads removed.
func attackFree(s *scenario.Scenario) *scenario.Scenario {
	c := s.Clone()
	c.Workloads = c.Workloads[:0]
	for _, w := range s.Workloads {
		if w.Kind == scenario.KindLegit {
			c.Workloads = append(c.Workloads, w)
		}
	}
	return &c
}

// TestGuardOnGeneratedAttackScenarios runs the fuzz generator's Blink
// deployments — random topologies, link parameters, failures, and taps —
// against the guard, pairing each adversarial scenario with its
// attack-free twin. Three properties: (a) on the attack-free twin the
// guard never vetoes anything; (b) on the adversarial variant every
// failover attempt, executed or blocked, passed through a recorded
// verdict; (c) across the sweep the guard actually fires — at least one
// storm that hijacks the unguarded pipeline is vetoed on the guarded one.
func TestGuardOnGeneratedAttackScenarios(t *testing.T) {
	model := DefaultRTOModel()
	seeds := uint64(80)
	if testing.Short() {
		seeds = 20
	}
	deployed, vetoed := 0, 0
	for seed := uint64(0); seed < seeds; seed++ {
		s := fuzz.Generate(seed, fuzz.GenConfig{})
		if s.Blink == nil {
			continue
		}
		hasAttack := false
		for _, w := range s.Workloads {
			hasAttack = hasAttack || w.Kind == scenario.KindAttack
		}
		if !hasAttack {
			continue
		}
		deployed++
		adversarialize(s)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: adversarialized scenario invalid: %v", seed, err)
		}

		run := func(sc *scenario.Scenario, guarded bool) (*blink.Pipeline, *BlinkGuard) {
			b := scenario.Build(sc)
			var g *BlinkGuard
			if guarded {
				g = GuardPipeline(b.Pipe, model)
			}
			b.Net.RunUntil(sc.Duration)
			b.Net.Teardown()
			return b.Pipe, g
		}

		// (a) Attack-free twin: no vetoes, ever.
		if p, _ := run(attackFree(s), true); p.VetoedReroutes != 0 {
			t.Fatalf("seed %d: %d vetoes on an attack-free scenario", seed, p.VetoedReroutes)
		}

		// (b) Adversarial variant: every failover attempt gets a verdict.
		p, g := run(s, true)
		if got, want := len(g.Verdicts), len(p.Reroutes())+p.VetoedReroutes; got != want {
			t.Fatalf("seed %d: %d verdicts for %d failover attempts", seed, got, want)
		}
		if p.VetoedReroutes > 0 {
			vetoed++
		}
	}
	if deployed == 0 {
		t.Fatal("generator produced no Blink+attack scenarios — sweep vacuous")
	}
	// (c) The guard must have blocked at least one generated storm. The
	// short-mode sweep is too small to promise a triggering storm, so only
	// the full sweep enforces non-vacuity.
	if vetoed == 0 && !testing.Short() {
		t.Fatalf("guard never fired across %d adversarial scenarios", deployed)
	}
}

// TestGuardNeverVetoesUnderGrayFailure is the chaos twin of the sweep
// above: the primary path suffers a benign gray failure — sporadic loss,
// duplication, and jitter — for the whole run. The retransmission noise it
// produces must neither trigger a spurious failover (covered by the
// reroute-threshold oracle elsewhere) nor, once the genuine failure hits,
// make the guard read the real storm as implausible and veto it.
func TestGuardNeverVetoesUnderGrayFailure(t *testing.T) {
	model := DefaultRTOModel()
	rng := stats.NewRNG(5)
	n := 10
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		eps := 0.2 + 0.8*rng.Float64()
		grayCfg := faults.GrayConfig{
			LossP:   0.03 * eps,
			DupP:    0.01 * eps,
			JitterP: 0.5,
			Jitter:  0.02 * eps,
		}
		grngA, grngB := stats.NewRNG(rng.Uint64()), stats.NewRNG(rng.Uint64())
		cfg := blink.FailoverConfig{
			Blink:    blink.Config{Cells: []int{16, 32, 64}[rng.IntN(3)]},
			Flows:    60 + rng.IntN(140),
			FailAt:   12 + rng.Float64()*16,
			Duration: 45,
			Hook:     func(p *blink.Pipeline) { GuardPipeline(p, model) },
			Chaos: func(topo blink.FailoverTopo) {
				topo.PrimaryTrunk.SetFault(faults.NewGray(grayCfg, grngA))
				topo.PrimaryTail.SetFault(faults.NewGray(grayCfg, grngB))
			},
		}
		res := blink.RunFailover(cfg)
		if res.VetoedReroutes != 0 {
			t.Fatalf("config %d (eps=%.2f cells=%d flows=%d failAt=%.1f): failover under gray failure vetoed %d times",
				i, eps, cfg.Blink.Cells, cfg.Flows, cfg.FailAt, res.VetoedReroutes)
		}
		if !res.Rerouted {
			t.Fatalf("config %d (eps=%.2f cells=%d flows=%d failAt=%.1f): no reroute — property vacuous",
				i, eps, cfg.Blink.Cells, cfg.Flows, cfg.FailAt)
		}
	}
}

// TestGuardNeverVetoesUnderFlapping: the primary tail flaps — bursty
// down/up cycles with realistic hold-down dwells — before the genuine
// failure. Flap-induced retransmission bursts are exactly the benign
// chaos a §5 countermeasure must tolerate: the guard may not veto the
// eventual genuine failover.
func TestGuardNeverVetoesUnderFlapping(t *testing.T) {
	model := DefaultRTOModel()
	rng := stats.NewRNG(9)
	n := 10
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		failAt := 14 + rng.Float64()*14
		flapCfg := faults.FlapConfig{
			Start:    3 + rng.Float64()*3,
			End:      failAt - 3,
			MeanDown: 0.2 + rng.Float64()*0.3,
			MeanUp:   1 + rng.Float64()*2,
			MinDwell: 0.2,
		}
		frng := stats.NewRNG(rng.Uint64())
		cfg := blink.FailoverConfig{
			Blink:    blink.Config{Cells: []int{16, 32, 64}[rng.IntN(3)]},
			Flows:    60 + rng.IntN(140),
			FailAt:   failAt,
			Duration: 45,
			Hook:     func(p *blink.Pipeline) { GuardPipeline(p, model) },
			Chaos: func(topo blink.FailoverTopo) {
				faults.ScheduleFlap(topo.Net.Engine(), topo.PrimaryTail, flapCfg, frng)
			},
		}
		res := blink.RunFailover(cfg)
		if res.VetoedReroutes != 0 {
			t.Fatalf("config %d (cells=%d flows=%d failAt=%.1f): failover under flapping vetoed %d times",
				i, cfg.Blink.Cells, cfg.Flows, cfg.FailAt, res.VetoedReroutes)
		}
		if !res.Rerouted {
			t.Fatalf("config %d (cells=%d flows=%d failAt=%.1f): no reroute — property vacuous",
				i, cfg.Blink.Cells, cfg.Flows, cfg.FailAt)
		}
	}
}
