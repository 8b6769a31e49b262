package pytheas

import (
	"context"

	"dui/internal/runner"
)

// PoisonRow is one point of the E5 poisoning sweep.
type PoisonRow struct {
	// BotFraction is the fraction of the group's sessions the attacker
	// controls.
	BotFraction float64
	// HonestQoELate is the honest clients' mean QoE in steady state.
	HonestQoELate float64
	// GoodShareLate is the fraction of honest sessions still assigned
	// the intrinsically better option (option 0).
	GoodShareLate float64
}

// PoisonSweep runs the §4.1 report-poisoning attack across bot fractions.
// The defense ablation is expressed through cfg.E2.Aggregate (Mean is the
// vulnerable default; Median/MADFiltered are the §5 countermeasure).
//
// workers is the trial worker count (0 = GOMAXPROCS). Each fraction is an
// independent group simulation seeded by cfg.Seed alone, so rows are
// identical at any worker count.
func PoisonSweep(cfg SimConfig, fractions []float64, multiplier, workers int) []PoisonRow {
	cfg = cfg.Defaults()
	rows, _ := runner.Map(context.Background(), fractions, cfg.Seed, runner.Config{Workers: workers},
		func(_ context.Context, t runner.Trial, f float64) (PoisonRow, error) {
			atk := Poison{
				Bots:             int(f * float64(cfg.Sessions)),
				ReportMultiplier: multiplier,
			}.Defaults()
			res := Run(cfg, atk)
			return PoisonRow{
				BotFraction:   f,
				HonestQoELate: res.HonestQoELate,
				GoodShareLate: res.LateShare[0],
			}, nil
		})
	return rows
}

// ThrottleOutcome reports the stampede attack's end state.
type ThrottleOutcome struct {
	Baseline *SimResult // no attack
	Attacked *SimResult
	// StampedeShare is the late fraction of honest sessions pushed onto
	// the non-target option.
	StampedeShare float64
	// PeakStampedeShare is the largest per-epoch share on the fallback
	// option: the stampede can be transient — the overloaded fallback
	// pushes sessions back, producing the oscillating imbalance ("create
	// imbalance and potentially overload one site") — so the peak
	// captures the overload event even when the steady state rebalances.
	PeakStampedeShare float64
	// QoEDrop is baseline minus attacked late honest QoE.
	QoEDrop float64
}

// RunThrottle runs the §4.1 selective-throttling attack: the target
// option is intrinsically better but the attacker throttles the sessions
// it can see on it; the alternative has limited capacity, so the stampede
// overloads it.
func RunThrottle(cfg SimConfig) *ThrottleOutcome {
	cfg = cfg.Defaults()
	if cfg.Options[1].Capacity == 0 {
		// Give the fallback site finite capacity so the stampede hurts.
		cfg.Options[1].Capacity = cfg.Sessions / 2
	}
	base := Run(cfg, NoAttack{})
	atk := Throttle{Sessions: cfg.Sessions}
	att := Run(cfg, atk)
	peak := 0.0
	for _, v := range att.OnOption[1].Values {
		if v > peak {
			peak = v
		}
	}
	return &ThrottleOutcome{
		Baseline:          base,
		Attacked:          att,
		StampedeShare:     att.LateShare[1],
		PeakStampedeShare: peak,
		QoEDrop:           base.HonestQoELate - att.HonestQoELate,
	}
}
