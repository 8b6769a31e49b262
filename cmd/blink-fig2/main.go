// Command blink-fig2 reproduces Fig 2 of the paper: the number of
// malicious flows in Blink's per-prefix sample over time — the §3.1
// theoretical model (mean and 5th/95th-percentile envelopes) overlaid
// with trace-driven simulations of the full flow-selector pipeline.
//
// With -csv it emits the plottable series; otherwise it prints the
// summary the figure's caption quotes (time until the sample majority is
// malicious).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"dui"
	"dui/internal/audit"
	"dui/internal/blink"
	"dui/internal/cli"
	"dui/internal/prof"
	"dui/internal/runner"
	"dui/internal/stats"
)

func main() {
	var (
		runs     = flag.Int("runs", 50, "number of trace-driven simulations")
		duration = flag.Float64("duration", 500, "horizon in seconds")
		tr       = flag.Float64("tr", 8.37, "target mean sampled residence tR (s)")
		qm       = flag.Float64("qm", 0.0525, "malicious traffic fraction")
		flows    = flag.Int("flows", 2000, "legitimate flow population")
		seed     = cli.Seed("")
		meanDur  = flag.Float64("meandur", 0, "legit mean flow duration (0 = calibrate to tR)")
		csv      = flag.Bool("csv", false, "emit plottable CSV instead of the summary")
		parallel = cli.Parallel("")
		progress = flag.Bool("progress", false, "report per-trial progress on stderr")
		trace    = cli.Trace("write the per-trial selector event trace (JSONL) to this file; diff two runs with cmd/simtrace")
		audited  = cli.Audit("check selector invariants on every trial (defaults to DUI_AUDIT)")
	)
	cli.Parse("blink-fig2")
	defer prof.Start()()

	cfgIn := dui.Fig2Config{
		Runs: *runs, Duration: *duration, TR: *tr, Qm: *qm,
		LegitFlows: *flows, Seed: *seed, MeanFlowDuration: *meanDur,
		Parallel: *parallel,
	}
	var (
		recs []*audit.Recorder
		auds []*audit.MonAudit
	)
	if *trace != "" || *audited {
		n := cfgIn.Defaults().Runs
		recs = make([]*audit.Recorder, n)
		auds = make([]*audit.MonAudit, n)
		cfgIn.ObserveTrial = func(run int, m *blink.Monitor) {
			var rec *audit.Recorder
			if *trace != "" {
				rec = audit.NewRecorder()
				recs[run] = rec
			}
			auds[run] = audit.AttachMonitor(m, rec)
		}
	}
	if *progress {
		cfgIn.OnProgress = func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "\rtrial %d/%d (%.1fs wall, %.0fs simulated)",
				p.Done, p.Total, p.Elapsed.Seconds(), p.VirtualSeconds)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	res := dui.RunFig2(cfgIn)

	if *audited {
		for run, a := range auds {
			if a == nil {
				continue
			}
			if err := a.Check(res.Config.Duration); err != nil {
				fmt.Fprintf(os.Stderr, "blink-fig2: audit: run %d: %v\n", run, err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "blink-fig2: audit: selector invariants hold for all %d runs\n", len(auds))
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blink-fig2: %v\n", err)
			os.Exit(1)
		}
		events := audit.Flatten(recs)
		if err := audit.WriteJSONL(f, events); err != nil {
			fmt.Fprintf(os.Stderr, "blink-fig2: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "blink-fig2: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "blink-fig2: wrote %d trace events to %s\n", len(events), *trace)
	}

	if *csv {
		names := []string{"theory_mean", "theory_p5", "theory_p95", "sim_mean", "sim_p5", "sim_p95"}
		series := []*stats.Series{res.TheoryMean, res.TheoryP5, res.TheoryP95, res.SimMean, res.SimP5, res.SimP95}
		for i, r := range res.Runs {
			names = append(names, fmt.Sprintf("run%02d", i))
			series = append(series, r)
		}
		fmt.Print(stats.CSV(names, series))
		return
	}

	cfg := res.Config
	fmt.Printf("Fig 2 reproduction — malicious flows sampled by Blink over time\n")
	fmt.Printf("parameters: tR=%.2fs qm=%.4f (%d legit + %d malicious flows), %d cells, threshold %d, %d runs\n",
		cfg.TR, cfg.Qm, cfg.LegitFlows, cfg.MalFlows(), cfg.Blink.Cells, cfg.Blink.Threshold, cfg.Runs)
	fmt.Printf("calibration: legit mean flow duration %.2fs -> measured tR %.2fs\n\n",
		res.MeanFlowDuration, res.MeasuredTR)

	fmt.Printf("theory (binomial model of §3.1):\n")
	fmt.Printf("  expected majority hitting time: %.0f s (5th pct %.0f s, 95th pct %.0f s)\n",
		res.TheoryExpectedHit, res.TheoryHitP5, res.TheoryHitP95)
	mc, _ := res.TheoryMean.FirstCrossing(float64(cfg.Blink.Threshold))
	fmt.Printf("  mean curve crosses %d cells at:  %.0f s\n", cfg.Blink.Threshold, mc)

	var hits []float64
	missed := 0
	for _, h := range res.HitTimes {
		if math.IsNaN(h) {
			missed++
		} else {
			hits = append(hits, h)
		}
	}
	fmt.Printf("\nsimulations (%d runs, %d reached the majority):\n", cfg.Runs, len(hits))
	if len(hits) > 0 {
		fmt.Printf("  mean hitting time: %.0f s   median: %.0f s   p5: %.0f s   p95: %.0f s\n",
			stats.Mean(hits), stats.Median(hits), stats.Quantile(hits, 0.05), stats.Quantile(hits, 0.95))
	}
	if missed > 0 {
		fmt.Printf("  %d runs never reached the majority within %.0f s\n", missed, cfg.Duration)
	}
	fmt.Printf("  sample end level: sim mean %.1f cells (theory %.1f, finite-pool bound %.1f)\n",
		res.SimMean.Values[len(res.SimMean.Values)-1],
		res.TheoryMean.Values[len(res.TheoryMean.Values)-1],
		blink.ExpectedCapturable(cfg.Blink.Cells, cfg.MalFlows()))
	fmt.Printf("\npaper: \"on average, it takes 172 s until the sample contains enough (i.e., 32) malicious flows\";\n")
	fmt.Printf("       simulations cross ~200 s. See EXPERIMENTS.md for the comparison discussion.\n")
}
