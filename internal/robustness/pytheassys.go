package robustness

import (
	"dui/internal/pytheas"
	"dui/internal/stats"
	"dui/internal/supervisor"
)

// pytheasSystem scores Pytheas (§4.1): attack "poison" is the botnet
// report-poisoning attack (fabricated QoE reports with volume
// amplification). The guarded arm runs the §5 defense stack —
// DedupReports plus the MAD-filtered aggregator — and feeds each
// epoch's report window through supervisor.PytheasGuard for detection.
// Damage is the honest population's
// QoE shortfall below the 4.5 benign benchmark over the late window,
// normalized to [0, 1].
//
// Profile mapping (pure-model system — Intensity maps onto the sim's
// own noise channels via a fault wrapper applied in BOTH guard arms):
// gray drops a fraction of honest reports and adds measurement noise;
// flap makes report loss bursty (windowed heavy-loss epochs); degrade
// scales every session's delivered QoE down (an overloaded backend the
// guard must not read as poisoning).
type pytheasSystem struct{}

func (pytheasSystem) Name() string      { return "pytheas" }
func (pytheasSystem) Attacks() []string { return []string{"poison"} }

// pytheasFaults wraps an Attacker with a benign-fault layer and, when a
// guard is attached, mirrors each epoch's submitted reports into the
// guard's observation window. Reports is called exactly once per
// session per epoch (sim.go's epoch loop), so call counting recovers
// epoch boundaries without an epoch argument.
type pytheasFaults struct {
	inner    pytheas.Attacker
	prof     Profile
	epochs   int
	sessions int
	rng      *stats.RNG
	guard    *supervisor.PytheasGuard

	calls    int
	window   []float64
	detected bool
}

func (w *pytheasFaults) IsBot(s int) bool { return w.inner.IsBot(s) }

func (w *pytheasFaults) Measure(s int, opt pytheas.Option, q float64) float64 {
	q = w.inner.Measure(s, opt, q)
	e := w.prof.Intensity
	switch w.prof.Name {
	case "gray":
		q += w.rng.NormFloat64() * 0.2 * e
	case "degrade":
		epoch := w.calls / w.sessions
		if epoch >= w.epochs/3 {
			q *= 1 - 0.3*e
		}
	}
	return q
}

func (w *pytheasFaults) Reports(s int, opt pytheas.Option, q float64) []float64 {
	reports := w.inner.Reports(s, opt, q)
	epoch := w.calls / w.sessions
	w.calls++
	e := w.prof.Intensity
	lossP := 0.0
	switch w.prof.Name {
	case "gray":
		lossP = 0.1 * e
	case "flap":
		// Bursty report loss in a mid-run window of epochs.
		if epoch >= w.epochs/4 && epoch < w.epochs/2 {
			lossP = 0.6 * e
		}
	}
	if lossP > 0 && !w.inner.IsBot(s) && w.rng.Bool(lossP) {
		reports = nil
	}
	if w.guard != nil && len(reports) > 0 {
		// The guard sees what the deduplicating frontend accepts: one
		// report per session per epoch.
		w.window = append(w.window, reports[0])
	}
	if w.calls%w.sessions == 0 && w.guard != nil {
		v := w.guard.Check(w.window)
		if !v.Plausible {
			w.detected = true
		}
		w.window = w.window[:0]
	}
	return reports
}

func (pytheasSystem) Run(attack string, guarded bool, prof Profile, seed uint64, quick bool) TrialResult {
	cfg := pytheas.SimConfig{Sessions: 400, Epochs: 120, Seed: seed}
	if quick {
		cfg.Sessions, cfg.Epochs = 200, 60
	}
	var inner pytheas.Attacker = pytheas.NoAttack{}
	if attack == "poison" {
		inner = pytheas.Poison{Bots: cfg.Sessions * 15 / 100, ReportMultiplier: 5}.Defaults()
	}
	w := &pytheasFaults{
		inner: inner, prof: prof,
		epochs: cfg.Epochs, sessions: cfg.Sessions,
		rng: stats.ChildAt(seed, 3100),
	}
	if guarded {
		cfg.DedupReports = true
		cfg.E2.Aggregate = pytheas.MADFiltered(3)
		w.guard = &supervisor.PytheasGuard{}
	}
	res := pytheas.Run(cfg, w)
	out := TrialResult{Damage: clamp01((4.5 - res.HonestQoELate) / 4.5)}
	if w.guard != nil {
		out.Detected = w.detected
		out.Checks = w.guard.Cost().Checks
	}
	return out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
