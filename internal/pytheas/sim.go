package pytheas

import "dui/internal/stats"

// OptionModel is the ground truth of one option (CDN site): its intrinsic
// quality and its capacity in concurrent sessions. Load beyond capacity
// degrades everyone on the option — the mechanism behind the §4.1
// stampede/overload attack.
type OptionModel struct {
	// BaseQoE is the mean QoE (0–5 scale) the option delivers unloaded.
	BaseQoE float64
	// Noise is the per-measurement QoE standard deviation.
	Noise float64
	// Capacity is the session count beyond which quality degrades
	// proportionally (0 = unlimited).
	Capacity int
}

// QoE samples the option's delivered QoE at the given load.
func (o OptionModel) QoE(load int, rng *stats.RNG) float64 {
	q := o.BaseQoE
	if o.Capacity > 0 && load > o.Capacity {
		q *= float64(o.Capacity) / float64(load)
	}
	q += o.Noise * rng.NormFloat64()
	return clampQoE(q)
}

func clampQoE(q float64) float64 {
	if q < 0 {
		return 0
	}
	if q > 5 {
		return 5
	}
	return q
}

// Attacker manipulates the measurement/report path of the simulation.
// Implementations are the §4.1 attacks.
type Attacker interface {
	// Reports returns the QoE values a session submits for one epoch
	// given its assignment and true measured QoE. Honest sessions return
	// {true QoE}; bots may lie and may submit multiple reports.
	Reports(session int, opt Option, trueQoE float64) []float64
	// Measure lets a MitM/operator attacker distort the session's
	// delivered QoE before the session sees it (selective throttling).
	Measure(session int, opt Option, trueQoE float64) float64
	// IsBot marks sessions excluded from the honest-QoE metric.
	IsBot(session int) bool
}

// NoAttack is the honest baseline.
type NoAttack struct{}

// Reports implements Attacker.
func (NoAttack) Reports(_ int, _ Option, q float64) []float64 { return []float64{q} }

// Measure implements Attacker.
func (NoAttack) Measure(_ int, _ Option, q float64) float64 { return q }

// IsBot implements Attacker.
func (NoAttack) IsBot(int) bool { return false }

// redecideProb is the per-epoch probability a session asks the frontend
// for a fresh decision (session churn).
const redecideProb float64 = 0.05

// SimConfig parameterizes the group simulation: a fixed session population
// in one group, epoch-based (one epoch ≈ one QoE reporting interval).
type SimConfig struct {
	E2       E2Config
	Options  []OptionModel
	Sessions int
	Epochs   int
	// DedupReports accepts only one report per session per epoch — the
	// §5 "input quality" countermeasure (authenticated, rate-limited
	// measurement reports). Without it a bot inflates its weight by
	// submitting many copies.
	DedupReports bool
	Seed         uint64
}

// Defaults fills a representative two-option workload: a good site and a
// poor one, 1000 sessions, 300 epochs.
func (c SimConfig) Defaults() SimConfig {
	c.E2 = c.E2.Defaults()
	if len(c.Options) == 0 {
		c.Options = []OptionModel{
			{BaseQoE: 4.5, Noise: 0.3},
			{BaseQoE: 2.5, Noise: 0.3},
		}
	}
	if c.Sessions <= 0 {
		c.Sessions = 1000
	}
	if c.Epochs <= 0 {
		c.Epochs = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SimResult summarizes a run.
type SimResult struct {
	Config SimConfig
	// HonestQoE is the per-epoch mean QoE of honest sessions.
	HonestQoE *stats.Series
	// HonestQoELate is its mean over the last third.
	HonestQoELate float64
	// OnOption is the per-epoch fraction of honest sessions on each
	// option.
	OnOption []*stats.Series
	// LateShare is the late-window mean share per option.
	LateShare []float64
}

// Run simulates the group under the given attacker (NoAttack for the
// baseline).
func Run(cfg SimConfig, atk Attacker) *SimResult {
	cfg = cfg.Defaults()
	if atk == nil {
		atk = NoAttack{}
	}
	rng := stats.NewRNG(cfg.Seed)
	g := NewGroup(cfg.E2)
	assign := make([]Option, cfg.Sessions)
	for i := range assign {
		assign[i] = g.Decide()
	}
	res := &SimResult{
		Config:    cfg,
		HonestQoE: stats.NewSeries(0, 1, cfg.Epochs),
	}
	for range cfg.Options {
		res.OnOption = append(res.OnOption, stats.NewSeries(0, 1, cfg.Epochs))
	}

	loads := make([]int, len(cfg.Options))
	for e := 0; e < cfg.Epochs; e++ {
		for i := range loads {
			loads[i] = 0
		}
		for _, opt := range assign {
			loads[opt]++
		}
		var honest stats.Summary
		honestOn := make([]int, len(cfg.Options))
		honestN := 0
		// Reports arrive interleaved across sessions, not in session-id
		// order: process sessions in a fresh random order each epoch.
		order := rng.Perm(cfg.Sessions)
		for _, s := range order {
			opt := assign[s]
			q := cfg.Options[opt].QoE(loads[opt], rng)
			q = atk.Measure(s, opt, q)
			if !atk.IsBot(s) {
				honest.Add(q)
				honestOn[opt]++
				honestN++
			}
			reports := atk.Reports(s, opt, q)
			if cfg.DedupReports && len(reports) > 1 {
				reports = reports[:1]
			}
			for _, r := range reports {
				g.Report(opt, clampQoE(r))
			}
			if rng.Bool(redecideProb) {
				assign[s] = g.Decide()
			}
		}
		res.HonestQoE.Values[e] = honest.Mean()
		for i := range cfg.Options {
			if honestN > 0 {
				res.OnOption[i].Values[e] = float64(honestOn[i]) / float64(honestN)
			}
		}
	}

	lateFrom := float64(cfg.Epochs) * 2 / 3
	res.HonestQoELate = lateMean(res.HonestQoE, lateFrom)
	for i := range cfg.Options {
		res.LateShare = append(res.LateShare, lateMean(res.OnOption[i], lateFrom))
	}
	return res
}

func lateMean(s *stats.Series, from float64) float64 {
	var sum stats.Summary
	for i := range s.Values {
		if s.Time(i) >= from {
			sum.Add(s.Values[i])
		}
	}
	return sum.Mean()
}
