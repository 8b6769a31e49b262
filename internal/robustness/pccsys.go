package robustness

import (
	"dui/internal/advsearch"
	"dui/internal/faults"
	"dui/internal/netsim"
	"dui/internal/pcc"
	"dui/internal/stats"
	"dui/internal/supervisor"
)

// pccSystem scores PCC Allegro (§4.2): attack "equalizer" is the MitM
// utility equalizer that forces the rate to oscillate at the ε cap. The
// guarded arm deploys both §5 countermeasures: the supervisor's ε clamp
// (EpsRange(0.01), bounding the forced oscillation) and the
// loss-correlation detector (supervisor.PCCGuard) over flow 0's
// monitor-interval history. Damage is the flow's late-rate shortfall
// below the bottleneck capacity it would otherwise converge to — the
// §4.2 headline is the flow staying pinned near its start rate.
//
// Profile mapping: gray installs scaled loss/duplication/jitter on the
// flow's bottleneck link; flap bounces the shared pre-destination link
// briefly mid-run; degrade halves-ish the bottleneck rate over the
// second half (genuine congestion the detector must not read as the
// equalizer — its loss hits fast and slow trials alike).
type pccSystem struct{}

func (pccSystem) Name() string      { return "pcc" }
func (pccSystem) Attacks() []string { return []string{"equalizer"} }

func (s pccSystem) Run(attack string, guarded bool, prof Profile, seed uint64, quick bool) TrialResult {
	return s.RunKnobs(attack, pccEqualizer(), guarded, prof, seed, quick)
}

// pccDuration is the run's length in virtual seconds.
func pccDuration(quick bool) float64 {
	if quick {
		return 45
	}
	return 90
}

// pccEqualizer is the named equalizer: pcc.NewEqualizer's margins,
// active from the start.
func pccEqualizer() advsearch.Vector { return advsearch.Vector{0.004, 0.03, 0} }

// Knobs spans the equalizer's own tuning: the rate-excess margin that
// classifies a fast trial (detect_margin), the loss added beyond the
// exact equalizing drop (extra_drop), and the attack's start time
// (active_from). A late-rate shortfall of half the capacity is the flip.
func (pccSystem) Knobs(_ string, quick bool) (advsearch.Space, advsearch.Vector, float64) {
	return advsearch.Space{
		{Name: "detect_margin", Min: 0.001, Max: 0.02, Log: true},
		{Name: "extra_drop", Min: 0.005, Max: 0.12, Log: true},
		{Name: "active_from", Min: 0, Max: 0.6 * pccDuration(quick)},
	}, pccEqualizer(), 0.5
}

// RunKnobs runs the equalizer at x; its Cost is the drop budget in
// percent of the packets it observed.
func (pccSystem) RunKnobs(attack string, x advsearch.Vector, guarded bool, prof Profile, seed uint64, quick bool) TrialResult {
	cfg := pcc.OscConfig{
		Duration: pccDuration(quick),
		Seed:     seed,
		Attack:   attack == "equalizer",
	}
	if cfg.Attack {
		cfg.EqDetectMargin, cfg.EqExtraDrop, cfg.EqActiveFrom = x[0], x[1], x[2]
	}
	if guarded {
		cfg.EpsMax = supervisor.EpsRange(0.01).Max
	}
	cfg.Chaos = pccChaos(prof, seed, cfg.Duration)
	res := pcc.RunOscillation(cfg)
	// The attack's headline damage is rate suppression: the flow stays
	// pinned near its start rate instead of converging to capacity.
	cc := cfg.Defaults()
	out := TrialResult{
		Damage: clamp01(1 - res.Flows[0].MeanRateLate/cc.CapacityPPS),
		Cost:   res.DropFraction * 100,
	}
	if guarded {
		g := &supervisor.PCCGuard{}
		v := g.Check(res.Records)
		out.Detected = !v.Plausible
		out.Checks = g.Cost().Checks
	}
	return out
}

func pccChaos(prof Profile, seed uint64, dur float64) func(*netsim.Network, []*netsim.Link, *netsim.Link) {
	e := prof.Intensity
	if e == 0 {
		return nil
	}
	switch prof.Name {
	case "gray":
		cfg := faults.GrayConfig{LossP: 0.004 * e, DupP: 0.002 * e, JitterP: 0.3, Jitter: 0.002 * e}
		return func(nw *netsim.Network, bottlenecks []*netsim.Link, shared *netsim.Link) {
			bottlenecks[0].SetFault(faults.NewGray(cfg, stats.ChildAt(seed, 3200)))
		}
	case "flap":
		return func(nw *netsim.Network, bottlenecks []*netsim.Link, shared *netsim.Link) {
			faults.ScheduleFlap(nw.Engine(), shared, faults.FlapConfig{
				Start: dur / 4, End: dur / 2,
				MeanDown: 0.05 * e, MeanUp: 4, MinDwell: 0.02,
			}, stats.ChildAt(seed, 3210))
		}
	case "degrade":
		return func(nw *netsim.Network, bottlenecks []*netsim.Link, shared *netsim.Link) {
			faults.ScheduleDegrade(nw.Engine(), bottlenecks[0], faults.DegradeConfig{
				At: dur / 2, Factor: 1 - 0.3*e,
			})
		}
	}
	return nil
}
