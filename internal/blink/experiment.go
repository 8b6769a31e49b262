package blink

import (
	"context"
	"math"

	"dui/internal/packet"
	"dui/internal/runner"
	"dui/internal/stats"
	"dui/internal/trace"
)

// Victim is the destination prefix used by the trace-driven experiments.
var Victim = packet.MustParsePrefix("10.9.0.0/24")

// Source address pools for the experiments; the malicious pool is disjoint
// from the legitimate one so results can label cells by occupant.
var (
	LegitSrcBase = packet.MustParseAddr("20.0.0.0")
	MalSrcBase   = packet.MustParseAddr("30.0.0.0")
)

// IsMaliciousSrc reports whether a flow key comes from the malicious pool.
func IsMaliciousSrc(k packet.FlowKey) bool {
	return k.Src >= MalSrcBase && k.Src < MalSrcBase+0x01000000
}

// MeasureTR empirically measures tR — the mean time a legitimate flow
// remains sampled — by running a legitimate-only workload through a
// one-prefix bank and averaging the residence times of completed
// (non-reset) evictions after a warmup.
func MeasureTR(cfg Config, flows int, dur trace.DurationDist, pps, duration, warmup float64, rng *stats.RNG) float64 {
	m := NewMonitorBank(1, cfg)
	var s stats.Summary
	m.OnEvict(func(_ int, ev Eviction) {
		if !ev.Reset && ev.Now >= warmup {
			s.Add(ev.Residence)
		}
	})
	st := trace.NewLegit(trace.LegitConfig{
		Victim: Victim, Flows: flows, Dur: dur, PPS: pps,
		Until: duration, SrcBase: LegitSrcBase,
	}, rng)
	for {
		ev, ok := st.Next()
		if !ok {
			break
		}
		m.FeedHashed(0, ev.Time, ev.Pkt, ev.FlowHash)
	}
	return s.Mean()
}

// calibrateTol is how close (seconds) CalibrateMeanDuration's measured
// tR must come to the target.
const calibrateTol float64 = 0.05

// CalibrateMeanDuration finds (by bisection) the exponential mean flow
// duration whose measured tR, at legitPPS packets per flow per second,
// matches the target within calibrateTol. This is how the experiments pin
// tR to the paper's 8.37 s without CAIDA data: the theoretical model
// depends on traffic only through tR and qm.
func CalibrateMeanDuration(cfg Config, flows int, targetTR float64, seed uint64) float64 {
	lo, hi := 0.1, 4*targetTR+10
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		tr := MeasureTR(cfg, flows, trace.ExpDuration{MeanSec: mid}, legitPPS, 90, 15, stats.NewRNG(seed))
		if math.Abs(tr-targetTR) <= calibrateTol {
			return mid
		}
		if tr < targetTR {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Packet rates and sampling grid of the trace-driven experiments.
const (
	// legitPPS is the legitimate per-flow packet rate of Fig 2 and E3.
	legitPPS float64 = 2
	// fig2MalPPS is the Fig 2 attacker per-flow packet rate.
	fig2MalPPS float64 = 2
	// sampleStep is the Fig 2 curves' sampling interval in seconds.
	sampleStep float64 = 1
)

// Fig2Config parameterizes the reproduction of Fig 2. Zero fields default
// to the paper's values: tR = 8.37 s, qm = 0.0525 (2000 legitimate + 105
// malicious flows), 50 simulations over 500 s.
type Fig2Config struct {
	Blink      Config
	TR         float64
	Qm         float64
	LegitFlows int
	Duration   float64
	Runs       int
	Seed       uint64
	// MeanFlowDuration skips calibration when set (exponential mean).
	MeanFlowDuration float64
	// Parallel bounds the trial worker pool (0 = GOMAXPROCS). Results
	// are bit-identical at every setting: each run draws from the stream
	// stats.ChildAt(Seed, run), independent of scheduling.
	Parallel int
	// OnProgress, if set, observes trial completion (see runner.Config).
	OnProgress func(runner.Progress)
	// ObserveTrial, if set, is called with each trial's one-prefix bank
	// right after construction, before any packet is fed — the attachment
	// point for internal/audit's event tracer and invariant checker.
	// Trials run concurrently on the worker pool, so the callback must be
	// safe for concurrent calls (distinct runs receive distinct banks).
	ObserveTrial func(run int, m *MonitorBank)
}

// Defaults fills the paper's parameters.
func (c Fig2Config) Defaults() Fig2Config {
	c.Blink = c.Blink.Defaults()
	if c.TR <= 0 {
		c.TR = 8.37
	}
	if c.Qm <= 0 {
		c.Qm = 0.0525
	}
	if c.LegitFlows <= 0 {
		c.LegitFlows = 2000
	}
	if c.Duration <= 0 {
		c.Duration = 500
	}
	if c.Runs <= 0 {
		c.Runs = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MalFlows returns the attacker pool size implied by Qm (qm = mal/legit,
// the paper's 105/2000 convention).
func (c Fig2Config) MalFlows() int {
	return int(math.Round(c.Qm * float64(c.LegitFlows)))
}

// Fig2Result holds everything Fig 2 plots plus the hitting-time summary
// quoted in its caption.
type Fig2Result struct {
	Config           Fig2Config
	MeanFlowDuration float64 // calibrated legitimate mean flow duration
	MeasuredTR       float64 // tR realized by the calibrated workload

	// Theory curves from the §3.1 binomial model.
	TheoryMean, TheoryP5, TheoryP95 *stats.Series
	// Simulation curves: each run's malicious-cell count over time, plus
	// cross-run aggregates.
	Runs                   []*stats.Series
	SimMean, SimP5, SimP95 *stats.Series
	// Hitting times: first time each run reaches the majority threshold
	// (NaN when never reached), and the theory's expectation/quantiles.
	HitTimes                  []float64
	TheoryExpectedHit         float64
	TheoryHitP5, TheoryHitP95 float64
}

// RunFig2 reproduces Fig 2: the theoretical mean and 5th/95th-percentile
// envelopes of the number of malicious flows in Blink's sample, overlaid
// with cfg.Runs trace-driven simulations of the full selector pipeline.
func RunFig2(cfg Fig2Config) *Fig2Result {
	cfg = cfg.Defaults()
	res := &Fig2Result{Config: cfg}

	res.MeanFlowDuration = cfg.MeanFlowDuration
	if res.MeanFlowDuration <= 0 {
		// Calibrate on a capped population: tR depends on the duration
		// distribution and (weakly) on per-cell collision pressure, so a
		// few hundred flows measure it accurately at a fraction of the
		// cost.
		calFlows := cfg.LegitFlows
		if calFlows > 600 {
			calFlows = 600
		}
		res.MeanFlowDuration = CalibrateMeanDuration(cfg.Blink, calFlows, cfg.TR, cfg.Seed+1000)
	}
	res.MeasuredTR = MeasureTR(cfg.Blink, cfg.LegitFlows,
		trace.ExpDuration{MeanSec: res.MeanFlowDuration}, legitPPS, 90, 15, stats.NewRNG(cfg.Seed+2000))

	model := Model{N: cfg.Blink.Cells, Threshold: cfg.Blink.Threshold(), TR: cfg.TR, Qm: cfg.Qm}
	res.TheoryMean = model.MeanCurve(cfg.Duration, sampleStep)
	res.TheoryP5 = model.QuantileCurve(0.05, cfg.Duration, sampleStep)
	res.TheoryP95 = model.QuantileCurve(0.95, cfg.Duration, sampleStep)
	res.TheoryExpectedHit = model.ExpectedHittingTime()
	res.TheoryHitP5 = model.HittingTimeQuantile(0.05)
	res.TheoryHitP95 = model.HittingTimeQuantile(0.95)

	// The runs are independent seeded trials: run k draws from
	// stats.ChildAt(cfg.Seed, k), the same stream the historical
	// sequential loop (base.Child() per run) produced, so results are
	// bit-identical to a sequential run at any worker count.
	type fig2Run struct {
		series *stats.Series
		hit    float64
	}
	runs, _ := runner.Run(context.Background(), cfg.Runs, cfg.Seed,
		runner.Config{Workers: cfg.Parallel, OnProgress: cfg.OnProgress},
		func(_ context.Context, t runner.Trial) (fig2Run, error) {
			series := simulateOnce(cfg, res.MeanFlowDuration, t.Index, stats.ChildAt(cfg.Seed, uint64(t.Index)))
			out := fig2Run{series: series, hit: math.NaN()}
			if ht, ok := series.FirstCrossing(float64(cfg.Blink.Threshold())); ok {
				out.hit = ht
			}
			t.ReportVirtual(cfg.Duration)
			return out, nil
		})
	var ens stats.Ensemble
	for _, r := range runs {
		res.Runs = append(res.Runs, r.series)
		ens.Add(r.series)
		res.HitTimes = append(res.HitTimes, r.hit)
	}
	res.SimMean = ens.Mean()
	res.SimP5 = ens.Quantile(0.05)
	res.SimP95 = ens.Quantile(0.95)
	return res
}

// simulateOnce runs one trace-driven selector simulation and returns the
// malicious-cell count sampled on the experiment grid.
func simulateOnce(cfg Fig2Config, meanDur float64, run int, rng *stats.RNG) *stats.Series {
	m := NewMonitorBank(1, cfg.Blink)
	if cfg.ObserveTrial != nil {
		cfg.ObserveTrial(run, m)
	}
	legit := trace.NewLegit(trace.LegitConfig{
		Victim: Victim, Flows: cfg.LegitFlows,
		Dur: trace.ExpDuration{MeanSec: meanDur}, PPS: legitPPS,
		Until: cfg.Duration, SrcBase: LegitSrcBase,
	}, rng.Child())
	mal := trace.NewMalicious(trace.MaliciousConfig{
		Victim: Victim, Flows: cfg.MalFlows(), PPS: fig2MalPPS,
		Until: cfg.Duration, SrcBase: MalSrcBase,
		RetransmitFrom: math.Inf(1), // occupancy only; E3 triggers the storm
	}, rng.Child())
	st := trace.Merge(legit, mal)

	series := stats.NewSeries(0, sampleStep, int(cfg.Duration/sampleStep))
	next := 0.0
	idx := 0
	for {
		ev, ok := st.Next()
		if !ok {
			break
		}
		for idx < len(series.Values) && ev.Time >= next {
			series.Values[idx] = float64(m.CountOccupied(0, IsMaliciousSrc))
			idx++
			next += sampleStep
		}
		m.FeedHashed(0, ev.Time, ev.Pkt, ev.FlowHash)
	}
	for ; idx < len(series.Values); idx++ {
		series.Values[idx] = float64(m.CountOccupied(0, IsMaliciousSrc))
	}
	return series
}

// SurveyRow is one line of the E2 prefix survey: a synthetic popular
// prefix, its measured tR, and what the attack needs against it.
type SurveyRow struct {
	Name         string
	MeanDuration float64 // mean flow duration of the prefix workload
	PPS          float64
	TR           float64 // measured mean sampled residence
	// RequiredQm is the malicious traffic fraction needed to reach a
	// majority within one reset period with 95% confidence.
	RequiredQm float64
	// HitAtPaperQm is the expected majority hitting time at qm = 0.0525
	// (infinite if a majority is not reachable within any budget).
	HitAtPaperQm float64
}

// RunSurvey measures tR for each prefix workload and derives the attack
// difficulty, reproducing the §3.1 survey ("for half of [the top-20
// prefixes] the average time a flow remains sampled is 10 s; the median is
// ~5 s") and its consequence: longer tR ⇒ higher required qm.
//
// workers is the trial worker count (0 = GOMAXPROCS). Prefix k's workload
// draws from stats.ChildAt(seed, k) — the stream the sequential loop used —
// so rows are identical at every worker count.
func RunSurvey(cfg Config, prefixes []trace.SurveyPrefix, flows int, seed uint64, workers int) []SurveyRow {
	cfg = cfg.Defaults()
	rows, _ := runner.Map(context.Background(), prefixes, seed, runner.Config{Workers: workers},
		func(_ context.Context, t runner.Trial, p trace.SurveyPrefix) (SurveyRow, error) {
			tr := MeasureTR(cfg, flows, p.Dur, p.PPS, 120, 20, stats.ChildAt(seed, uint64(t.Index)))
			model := Model{N: cfg.Cells, Threshold: cfg.Threshold(), TR: tr, Qm: 0.0525}
			t.ReportVirtual(120)
			return SurveyRow{
				Name:         p.Name,
				MeanDuration: p.Dur.Mean(),
				PPS:          p.PPS,
				TR:           tr,
				RequiredQm:   RequiredQm(cfg.Cells, cfg.Threshold(), tr, cfg.ResetPeriod),
				HitAtPaperQm: model.ExpectedHittingTime(),
			}, nil
		})
	return rows
}
