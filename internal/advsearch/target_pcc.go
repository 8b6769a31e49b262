package advsearch

import (
	"dui/internal/pcc"
	"dui/internal/supervisor"
)

// PCCTarget searches the equalizer MitM's own tuning (§4.2): detection
// margin, extra-drop margin, and activation time. Flipped means the
// victim flow's late-run rate collapsed below 60% of the clean baseline;
// cost is the attacker's drop budget in percent of observed packets — the
// paper's "tampering with only a small fraction of traffic" quantified.
//
// The guarded deployment combines both §5 countermeasures for PCC: the
// ε-range clamp (EpsMax 0.02, bounding the forced oscillation) and the
// loss-correlation detector — an attack that the detector flags is not a
// flip, however hard it suppressed the rate, because the deployment
// catches it.
type PCCTarget struct {
	Guarded bool
	// Duration is the per-evaluation virtual time (0 = 40 s).
	Duration float64

	baseline float64
}

// guardedEpsMax is the supervisor's clamped trial amplitude
// (supervisor.EpsRange applied to the driver).
const guardedEpsMax = 0.02

// NewPCCTarget builds the target and measures the clean-rate baseline
// the collapse criterion compares against.
func NewPCCTarget(guarded bool) *PCCTarget {
	t := &PCCTarget{Guarded: guarded}
	t.init()
	return t
}

func (t *PCCTarget) init() {
	if t.Duration <= 0 {
		t.Duration = 40
	}
	if t.baseline == 0 {
		clean := pcc.RunOscillation(pcc.OscConfig{Duration: t.Duration, Seed: 1})
		t.baseline = clean.MeanRateLate
	}
}

// Name implements Target.
func (t *PCCTarget) Name() string {
	if t.Guarded {
		return "pcc-guarded"
	}
	return "pcc"
}

// Space implements Target.
func (t *PCCTarget) Space() Space {
	t.init()
	return Space{
		// Rate-excess margin for classifying a fast trial: too tight
		// misses trials in pacing noise, too loose punishes base-rate
		// phases and wastes budget.
		{Name: "detect_margin", Min: 0.001, Max: 0.02, Log: true},
		// Loss added beyond the exact equalizing drop.
		{Name: "extra_drop", Min: 0.005, Max: 0.12, Log: true},
		// Attack start time: a late start spends less budget but leaves
		// the flow time to converge first.
		{Name: "active_from", Min: 0, Max: t.Duration * 0.6},
	}
}

// Evaluate implements Target.
func (t *PCCTarget) Evaluate(x Vector, evalSeed uint64) Outcome {
	t.init()
	if evalSeed == 0 {
		evalSeed = 1
	}
	cfg := pcc.OscConfig{
		Attack:         true,
		Duration:       t.Duration,
		Seed:           evalSeed,
		EqDetectMargin: x[0],
		EqExtraDrop:    x[1],
		EqActiveFrom:   x[2],
	}
	if t.Guarded {
		cfg.EpsMax = guardedEpsMax
	}
	res := pcc.RunOscillation(cfg)

	out := Outcome{Cost: res.DropFraction * 100}
	suppressed := (t.baseline - res.MeanRateLate) / t.baseline
	collapsed := res.MeanRateLate < 0.6*t.baseline
	detected := false
	if t.Guarded {
		detected = !(&supervisor.PCCGuard{}).Check(res.Records).Plausible
	}
	out.Flipped = collapsed && !detected
	p := suppressed / 0.4
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	if detected {
		// A detected attack is at best half-way: the remaining distance
		// is evading the loss-correlation check.
		p = p / 2
	}
	out.Progress = p
	if out.Flipped {
		out.Progress = 1
	}
	return out
}
