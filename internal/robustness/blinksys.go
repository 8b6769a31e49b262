package robustness

import (
	"dui/internal/advsearch"
	"dui/internal/blink"
	"dui/internal/faults"
	"dui/internal/netsim"
	"dui/internal/stats"
	"dui/internal/supervisor"
)

// blinkSystem scores Blink (§3/§5): attack "hijack" is the fake
// retransmission storm that steals the victim prefix onto the
// attacker's backup path; the attack-free twin is a genuine failure the
// system must still react to, so a guard flag on the twin is a vetoed
// legitimate failover. Damage under attack is 1 when the hijack
// rerouted the prefix; twin damage is 1 when the genuine failure went
// unhandled (no reroute — including reroutes the guard wrongly vetoed).
//
// Profile mapping: gray installs a scaled faults.Gray (loss,
// duplication, jitter) on the primary path; flap bounces the ingress
// uplink in the first half of the run (bursty benign outages whose
// recovery bursts are genuine retransmissions); degrade adds sustained
// jitter on the primary trunk — the trunks are unthrottled in these
// topologies, so rate scaling has no bite and latency inflation is the
// degradation that does.
type blinkSystem struct{}

func (blinkSystem) Name() string      { return "blink" }
func (blinkSystem) Attacks() []string { return []string{"hijack"} }

func (s blinkSystem) Run(attack string, guarded bool, prof Profile, seed uint64, quick bool) TrialResult {
	return s.RunKnobs(attack, blinkHijack(quick), guarded, prof, seed, quick)
}

// blinkHijackDuration is the hijack run's length in virtual seconds.
func blinkHijackDuration(quick bool) float64 {
	if quick {
		return 45
	}
	return 70
}

// blinkHijack is the named hijack: 56 spoofed flows at 2 pps that storm
// at 40 s (25 s quick), without RTO mimicry.
func blinkHijack(quick bool) advsearch.Vector {
	if quick {
		return advsearch.Vector{56, 2, 25, 0}
	}
	return advsearch.Vector{56, 2, 40, 0}
}

// Knobs spans the hijack: the spoofed pool's size (mal_flows) and
// per-flow rate (mal_pps), when its storm starts (trigger_at), and
// whether the storm paces like genuine RTO backoff (mimic, the §5
// adaptive attacker). A reroute is the flip.
func (blinkSystem) Knobs(_ string, quick bool) (advsearch.Space, advsearch.Vector, float64) {
	dur := blinkHijackDuration(quick)
	return advsearch.Space{
		{Name: "mal_flows", Min: 4, Max: 256, Integer: true, Log: true},
		{Name: "mal_pps", Min: 0.5, Max: 20, Log: true},
		{Name: "trigger_at", Min: 5, Max: dur - 5},
		{Name: "mimic", Min: 0, Max: 1, Integer: true},
	}, blinkHijack(quick), 1
}

// RunKnobs runs the hijack at x; its Cost is the pool's spoofed packet
// budget, flows × rate × run length.
func (blinkSystem) RunKnobs(attack string, x advsearch.Vector, guarded bool, prof Profile, seed uint64, quick bool) TrialResult {
	if attack != "hijack" {
		return blinkRunTwin(guarded, prof, seed, quick)
	}
	cfg := blink.HijackConfig{
		LegitFlows: 120, MalFlows: int(x[0]), MalPPS: x[1],
		TriggerAt: x[2], MimicRTO: x[3] >= 0.5,
		Duration: blinkHijackDuration(quick), Seed: seed,
	}
	if quick {
		cfg.LegitFlows = 80
	}
	cfg.Chaos = blinkHijackChaos(prof, seed, cfg.Duration)
	var g *supervisor.BlinkGuard
	if guarded {
		cfg.Hook = func(p *blink.Pipeline) {
			g = supervisor.GuardPipeline(p, supervisor.DefaultRTOModel())
		}
	}
	res := blink.RunHijack(cfg)
	out := TrialResult{Cost: float64(cfg.MalFlows) * cfg.MalPPS * cfg.Duration}
	if res.Rerouted {
		out.Damage = 1
	}
	if g != nil {
		out.Detected = res.VetoedReroutes > 0
		out.Checks = g.Cost().Checks
	}
	return out
}

func blinkRunTwin(guarded bool, prof Profile, seed uint64, quick bool) TrialResult {
	cfg := blink.FailoverConfig{Flows: 100, FailAt: 25, Duration: 45}
	if quick {
		// FailAt stays well past the flap window's end (2/5 of the
		// duration): the guard's plausibility window is absolute-time, so
		// the quick twin needs the same several-second gap the full twin
		// has between benign flap recovery and the genuine failure.
		cfg.Flows, cfg.FailAt, cfg.Duration = 60, 18, 30
	}
	cfg.Chaos = blinkFailoverChaos(prof, seed, cfg.Duration)
	var g *supervisor.BlinkGuard
	if guarded {
		cfg.Hook = func(p *blink.Pipeline) {
			g = supervisor.GuardPipeline(p, supervisor.DefaultRTOModel())
		}
	}
	res := blink.RunFailover(cfg)
	out := TrialResult{}
	if !res.Rerouted {
		// Genuine failure not handled: either the monitor missed it or
		// the guard vetoed the legitimate failover.
		out.Damage = 1
	}
	if g != nil {
		out.Detected = res.VetoedReroutes > 0
		out.Checks = g.Cost().Checks
	}
	return out
}

// blinkFailoverChaos builds the benign-fault plan for the failover twin
// topology.
func blinkFailoverChaos(prof Profile, seed uint64, dur float64) func(blink.FailoverTopo) {
	e := prof.Intensity
	if e == 0 {
		return nil
	}
	switch prof.Name {
	case "gray":
		cfg := faults.GrayConfig{LossP: 0.02 * e, DupP: 0.01 * e, JitterP: 0.5, Jitter: 0.02 * e}
		return func(t blink.FailoverTopo) {
			t.PrimaryTrunk.SetFault(faults.NewGray(cfg, stats.ChildAt(seed, 3000)))
			t.PrimaryTail.SetFault(faults.NewGray(cfg, stats.ChildAt(seed, 3001)))
		}
	case "flap":
		return func(t blink.FailoverTopo) {
			// The flap window closes well before the genuine failure so
			// its recovery bursts age out of the guard's sample window.
			faults.ScheduleFlap(t.Net.Engine(), t.SenderUplink, faults.FlapConfig{
				Start: dur / 5, End: 2 * dur / 5,
				MeanDown: 0.05 + 0.1*e, MeanUp: 2, MinDwell: 0.05,
			}, stats.ChildAt(seed, 3010))
		}
	case "degrade":
		cfg := faults.GrayConfig{JitterP: 1, Jitter: 0.03 * e, From: dur / 5}
		return func(t blink.FailoverTopo) {
			t.PrimaryTrunk.SetFault(faults.NewGray(cfg, stats.ChildAt(seed, 3020)))
		}
	}
	return nil
}

// blinkHijackChaos is the same plan over the hijack topology's link
// vector (ingress–rBlink, primary trunk, backup trunk, primary tail,
// backup tail).
func blinkHijackChaos(prof Profile, seed uint64, dur float64) func(*netsim.Network, []*netsim.Link) {
	e := prof.Intensity
	if e == 0 {
		return nil
	}
	switch prof.Name {
	case "gray":
		cfg := faults.GrayConfig{LossP: 0.02 * e, DupP: 0.01 * e, JitterP: 0.5, Jitter: 0.02 * e}
		return func(nw *netsim.Network, links []*netsim.Link) {
			links[1].SetFault(faults.NewGray(cfg, stats.ChildAt(seed, 3000)))
			links[3].SetFault(faults.NewGray(cfg, stats.ChildAt(seed, 3001)))
		}
	case "flap":
		return func(nw *netsim.Network, links []*netsim.Link) {
			faults.ScheduleFlap(nw.Engine(), links[0], faults.FlapConfig{
				Start: dur / 5, End: dur / 2,
				MeanDown: 0.05 + 0.1*e, MeanUp: 2, MinDwell: 0.05,
			}, stats.ChildAt(seed, 3010))
		}
	case "degrade":
		cfg := faults.GrayConfig{JitterP: 1, Jitter: 0.03 * e, From: dur / 5}
		return func(nw *netsim.Network, links []*netsim.Link) {
			links[1].SetFault(faults.NewGray(cfg, stats.ChildAt(seed, 3020)))
		}
	}
	return nil
}
