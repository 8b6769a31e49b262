// Command duireport runs every experiment in the reproduction at (or
// near) the paper's parameters and prints a markdown report in the shape
// of EXPERIMENTS.md: per-experiment measured numbers next to the paper's
// claims. It is the single command that regenerates the repository's
// results.
//
// The full Fig 2 run (50 trace-driven simulations of 2105 flows over
// 500 s) takes a few minutes; -quick cuts every experiment down for a
// fast smoke pass. -parallel N runs the eight report sections — and the
// seeded trials inside each — concurrently on the trial runner; the
// report text is identical at every worker count.
//
// duireport <subcommand> [flags] prints one experiment's full tables:
//
//	blink-survey       E2: per prefix, tR (how long a legit flow stays in Blink's sample) and the qm needed
//	blink-hijack       E3: faked retransmissions reroute a healthy prefix onto the attacker's path;
//	                   -defended adds the §5 supervisor, -legit runs a genuine failure instead
//	pcc-oscillate      E4: the utility equalizer pins PCC flows near their start rate for <1% drops
//	pytheas-poison     E5: honest QoE vs botnet share, with and without dedup + MAD; the throttle stampede
//	nethide-trace      E6: NetHide's accuracy/utility/security trade-off; an operator's lie hides the bottleneck
//	dataplane-attacks  E7: §3.2 breadth: SP-PIFO, FlowRadar/Bloom, RON, DAPPER, state exhaustion, BNN
//	blink-fig2         E1: Fig 2, theory vs trace-driven simulation; -csv series, -audit/-trace selector checks
//	blink-pop          Blink at PoP scale: a selector bank over millions of flows, stdout identical at any -shards
//	chaos-eval         §5 Blink guard under gray failure: detect, false-veto and false-reroute rates per intensity
//	robustness         §5 matrix: system x attack x guard arm x fault profile; -defense-eval prints E8 in full
//	advsearch          black-box attack-frontier search (CEM or annealing) over the matrix's Blink, Pytheas and PCC deployments, as JSON
//	simfuzz            property-based fuzzing of random scenarios under the audit oracles; -replay re-checks a reproducer corpus
//	simtrace           diff two JSONL event traces (blink-fig2 -trace) and print the first diverging event
//
// simfuzz, chaos-eval, robustness and advsearch run campaign job kinds
// (internal/campaign): -server submits the spec to a running duid
// instead, -json (always, for advsearch) writes the canonical result
// bytes, and a spec the campaign validator rejects exits 2. simfuzz
// exits 1 only when the oracles caught failures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"dui/internal/audit"
	"dui/internal/blink"
	"dui/internal/bnn"
	"dui/internal/campaign"
	"dui/internal/cli"
	"dui/internal/conntrack"
	"dui/internal/dapper"
	"dui/internal/graph"
	"dui/internal/nethide"
	"dui/internal/pcc"
	"dui/internal/popscale"
	"dui/internal/prof"
	"dui/internal/pytheas"
	"dui/internal/robustness"
	"dui/internal/ron"
	"dui/internal/runner"
	"dui/internal/sketch"
	"dui/internal/sppifo"
	"dui/internal/stats"
	"dui/internal/supervisor"
	"dui/internal/trace"
)

// subcommands maps each single-experiment mode to its body, which
// defines its flags and calls start as a standalone main would.
var subcommands = map[string]func(){
	"blink-survey":      blinkSurvey,
	"blink-hijack":      blinkHijack,
	"pcc-oscillate":     pccOscillate,
	"pytheas-poison":    pytheasPoison,
	"nethide-trace":     nethideTrace,
	"dataplane-attacks": dataplaneAttacks,
	"blink-fig2":        blinkFig2,
	"blink-pop":         blinkPop,
	"chaos-eval":        chaosEval,
	"robustness":        robustnessMatrix,
	"advsearch":         advSearch,
	"simfuzz":           simfuzz,
	"simtrace":          simtrace,
}

// main dispatches on os.Args[1] before any flag is parsed: a subcommand
// name is shifted off os.Args, so the subcommand parses its own flags.
// Any other word is left for the report mode to reject.
func main() {
	flag.Usage = usage
	run := report
	if len(os.Args) > 1 && subcommands[os.Args[1]] != nil {
		run = subcommands[os.Args[1]]
		os.Args = os.Args[1:]
	}
	run()
}

// start parses the command line of tool, rejects a stray positional
// argument (or an unknown subcommand) with the usage and exit status 2,
// and starts the profiling the flags ask for; defer the returned stop.
func start(tool string) (stop func()) {
	cli.Parse(tool)
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n", tool, flag.Arg(0))
		flag.Usage()
		exit(2)
	}
	return startProfiling()
}

// stopProfiling finalizes the profiles startProfiling began; until then
// it does nothing.
var stopProfiling = func() {}

// startProfiling starts the profiling the flags ask for and returns its
// stop function: defer it, and leave the process only through exit.
func startProfiling() (stop func()) {
	stopProfiling = prof.Start()
	return stopProfiling
}

// exit ends the process with code. Every exit goes through it, so an
// error exit still writes complete -cpuprofile and -memprofile files.
func exit(code int) {
	stopProfiling()
	os.Exit(code)
}

// usage prints the synopsis, the subcommands and the defined flags.
func usage() {
	var names []string
	for name := range subcommands {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "usage: duireport [flags] | duireport <subcommand> [flags]\nsubcommands: %s\nflags:\n",
		strings.Join(names, " "))
	flag.PrintDefaults()
}

// report is the default mode: every experiment's section, in order.
func report() {
	var (
		quick    = flag.Bool("quick", false, "reduced-scale smoke run")
		seed     = cli.Seed("")
		parallel = cli.Parallel("workers for sections and trials (0 = all cores; report identical at any setting)")
	)
	defer start("duireport")()

	fmt.Printf("# Reproduction report (seed %d, quick=%v)\n", *seed, *quick)

	sections := []func(b *strings.Builder, quick bool, seed uint64, workers int){
		e1, e2, e3, e4, e5, e6, e7, e8,
	}
	outputs, _ := runner.Map(context.Background(), sections, *seed, runner.Config{Workers: *parallel},
		func(_ context.Context, t runner.Trial, section func(*strings.Builder, bool, uint64, int)) (string, error) {
			var b strings.Builder
			section(&b, *quick, *seed, *parallel)
			return b.String(), nil
		})
	for _, out := range outputs {
		fmt.Print(out)
	}
}

func e1(b *strings.Builder, quick bool, seed uint64, workers int) {
	cfg := blink.Fig2Config{Seed: seed, Parallel: workers}
	if quick {
		cfg.Runs, cfg.Duration, cfg.LegitFlows = 4, 400, 2000
	}
	res := blink.RunFig2(cfg)
	cross, _ := res.TheoryMean.FirstCrossing(32)
	hits := reached(res)
	fmt.Fprintf(b, "\n## E1 — Fig 2: malicious flows sampled by Blink\n")
	fmt.Fprintf(b, "- parameters: tR=%.2fs (measured %.2fs), qm=%.4f, %d runs\n",
		res.Config.TR, res.MeasuredTR, res.Config.Qm, res.Config.Runs)
	fmt.Fprintf(b, "- theory: E[hit 32 cells]=%.0fs (p5 %.0fs, p95 %.0fs); mean curve crosses 32 at %.0fs\n",
		res.TheoryExpectedHit, res.TheoryHitP5, res.TheoryHitP95, cross)
	if len(hits) > 0 {
		fmt.Fprintf(b, "- simulation: mean hit %.0fs, median %.0fs, p5 %.0fs, p95 %.0fs (%d/%d runs reached majority)\n",
			stats.Mean(hits), stats.Median(hits), stats.Quantile(hits, 0.05), stats.Quantile(hits, 0.95),
			len(hits), res.Config.Runs)
	}
	fmt.Fprintf(b, "- end-of-run sample: sim %.1f cells, theory %.1f, finite-pool bound %.1f\n",
		last(res.SimMean), last(res.TheoryMean), blink.ExpectedCapturable(res.Config.Blink.Cells, res.Config.MalFlows()))
	fmt.Fprintf(b, "- paper: avg 172s to majority, simulations ~200s, sample saturates high\n")
}

// reached returns the hitting times of the Fig 2 runs whose sample
// reached the malicious majority.
func reached(res *blink.Fig2Result) []float64 {
	var hits []float64
	for _, h := range res.HitTimes {
		if !math.IsNaN(h) {
			hits = append(hits, h)
		}
	}
	return hits
}

func blinkFig2() {
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
		trace    = cli.Trace("write the per-trial selector event trace (JSONL) to this file; diff two runs with duireport simtrace")
		audited  = cli.Audit("check selector invariants on every trial (defaults to DUI_AUDIT)")
	)
	defer start("duireport blink-fig2")()

	cfgIn := blink.Fig2Config{
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
		cfgIn.ObserveTrial = func(run int, m *blink.MonitorBank) {
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
	res := blink.RunFig2(cfgIn)

	if *audited {
		for run, a := range auds {
			if a == nil {
				continue
			}
			if err := a.Check(res.Config.Duration); err != nil {
				fmt.Fprintf(os.Stderr, "blink-fig2: audit: run %d: %v\n", run, err)
				exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "blink-fig2: audit: selector invariants hold for all %d runs\n", len(auds))
	}
	if *trace != "" {
		events := audit.Flatten(recs)
		f, err := os.Create(*trace)
		if err == nil {
			err = errors.Join(audit.WriteJSONL(f, events), f.Close())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "blink-fig2: %v\n", err)
			exit(1)
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
		cfg.TR, cfg.Qm, cfg.LegitFlows, cfg.MalFlows(), cfg.Blink.Cells, cfg.Blink.Threshold(), cfg.Runs)
	fmt.Printf("calibration: legit mean flow duration %.2fs -> measured tR %.2fs\n\n",
		res.MeanFlowDuration, res.MeasuredTR)

	fmt.Printf("theory (binomial model of §3.1):\n")
	fmt.Printf("  expected majority hitting time: %.0f s (5th pct %.0f s, 95th pct %.0f s)\n",
		res.TheoryExpectedHit, res.TheoryHitP5, res.TheoryHitP95)
	mc, _ := res.TheoryMean.FirstCrossing(float64(cfg.Blink.Threshold()))
	fmt.Printf("  mean curve crosses %d cells at:  %.0f s\n", cfg.Blink.Threshold(), mc)

	hits := reached(res)
	fmt.Printf("\nsimulations (%d runs, %d reached the majority):\n", cfg.Runs, len(hits))
	if len(hits) > 0 {
		fmt.Printf("  mean hitting time: %.0f s   median: %.0f s   p5: %.0f s   p95: %.0f s\n",
			stats.Mean(hits), stats.Median(hits), stats.Quantile(hits, 0.05), stats.Quantile(hits, 0.95))
	}
	if missed := len(res.HitTimes) - len(hits); missed > 0 {
		fmt.Printf("  %d runs never reached the majority within %.0f s\n", missed, cfg.Duration)
	}
	fmt.Printf("  sample end level: sim mean %.1f cells (theory %.1f, finite-pool bound %.1f)\n",
		last(res.SimMean), last(res.TheoryMean), blink.ExpectedCapturable(cfg.Blink.Cells, cfg.MalFlows()))
	fmt.Printf("\npaper: \"on average, it takes 172 s until the sample contains enough (i.e., 32) malicious flows\";\n")
	fmt.Printf("       simulations cross ~200 s. See EXPERIMENTS.md for the comparison discussion.\n")
}

func blinkPop() {
	var cfg popscale.Config
	flag.IntVar(&cfg.Prefixes, "prefixes", 16384, "monitored /24 prefixes")
	flag.IntVar(&cfg.FlowsPerPrefix, "flows-per-prefix", 64, "concurrently active legitimate flows per prefix")
	flag.Float64Var(&cfg.Duration, "duration", 20, "simulated horizon (seconds)")
	flag.Float64Var(&cfg.PPS, "pps", 2, "mean per-flow packet rate")
	flag.Float64Var(&cfg.MeanFlowDuration, "flow-duration", 6.35, "mean legitimate flow duration (seconds)")
	flag.Float64Var(&cfg.Epoch, "epoch", 1, "prefix-interleave granularity (seconds)")
	flag.IntVar(&cfg.AttackedEvery, "attack-every", 16, "attack pool on every k-th prefix (0 = attack-free)")
	flag.IntVar(&cfg.AttackFlows, "attack-flows", 48, "attack pool size per attacked prefix (>= threshold so storms can win the majority vote)")
	flag.Float64Var(&cfg.StormAt, "storm-at", 0, "retransmission-storm start (0 = duration/2, <0 = never)")
	cli.SeedVar(&cfg.Seed, "root seed (prefix pid streams from ChildAt(seed, pid))")
	flag.IntVar(&cfg.Shards, "shards", 32, "contiguous prefix-range shards (output identical at any value)")
	cli.ParallelVar(&cfg.Parallel, "workers for the shard pool (0 = all cores; output identical at any value)")
	quick := flag.Bool("quick", false, "reduced-scale smoke run (512 prefixes, 10 s)")
	failures := flag.Int("failures", 5, "print the first N failure inferences")
	defer start("duireport blink-pop")()

	if *quick {
		cfg.Prefixes, cfg.Duration = 512, 10
	}

	res, err := popscale.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blink-pop:", err)
		exit(1)
	}
	cfg = res.Config // defaulted

	fmt.Printf("# blink-pop: prefixes=%d flows/prefix=%d duration=%gs pps=%g seed=%d\n",
		cfg.Prefixes, cfg.FlowsPerPrefix, cfg.Duration, cfg.PPS, cfg.Seed)
	fmt.Printf("active flows:  %d (%d attacked prefixes)\n", res.ActiveFlows, res.AttackedPrefixes)
	fmt.Printf("packets:       %d\n", res.Packets)
	fmt.Printf("occupied:      %d cells at t=%g\n", res.OccupiedCells, cfg.Duration)
	fmt.Printf("failures:      %d inferences on %d prefixes\n", len(res.Failures), res.PrefixesWithFailure)
	for i, f := range res.Failures {
		if i >= *failures {
			fmt.Printf("  … %d more\n", len(res.Failures)-i)
			break
		}
		fmt.Printf("  prefix %d failed at t=%.3fs\n", f.Prefix, f.Now)
	}
	fmt.Printf("state hash:    %016x\n", res.StateHash)

	fmt.Fprintf(os.Stderr, "wall: %.2fs  flows/sec: %.3gM  events/sec: %.3gM  (shards=%d parallel=%d)\n",
		res.WallSeconds, res.FlowsPerSec/1e6, res.EventsPerSec/1e6, cfg.Shards, cfg.Parallel)
	if rss, ok := prof.PeakRSS(); ok {
		fmt.Fprintf(os.Stderr, "peak RSS: %.1f MiB\n", float64(rss)/(1<<20))
	}
}

func e2(b *strings.Builder, quick bool, seed uint64, workers int) {
	n, flows := 20, 500
	if quick {
		n, flows = 8, 250
	}
	rows := survey(n, flows, seed, workers)
	var trs []float64
	ge10, feasible := 0, 0
	for _, r := range rows {
		trs = append(trs, r.TR)
		if r.TR >= 10 {
			ge10++
		}
		if r.RequiredQm <= 0.0525 {
			feasible++
		}
	}
	fmt.Fprintf(b, "\n## E2 — prefix survey (tR and required qm)\n")
	fmt.Fprintf(b, "- %d synthetic prefixes: median tR %.1fs, %d/%d with tR>=10s\n",
		n, stats.Median(trs), ge10, n)
	fmt.Fprintf(b, "- prefixes attackable at qm<=5.25%% within one reset: %d/%d\n", feasible, n)
	fmt.Fprintf(b, "- required qm is monotone in tR (theory property, verified in tests)\n")
	fmt.Fprintf(b, "- paper: median tR ~5s; half of prefixes ~10s; longer tR needs higher qm\n")
}

// survey measures tR and the required qm for n synthetic prefixes (E2).
func survey(n, flows int, seed uint64, workers int) []blink.SurveyRow {
	return blink.RunSurvey(blink.Config{}, trace.SyntheticSurvey(n, stats.NewRNG(seed)), flows, seed+1, workers)
}

func blinkSurvey() {
	var (
		n        = flag.Int("prefixes", 20, "number of synthetic prefixes")
		flows    = flag.Int("flows", 500, "concurrent flows per prefix workload")
		seed     = cli.Seed("")
		parallel = cli.Parallel("")
	)
	defer start("duireport blink-survey")()

	rows := survey(*n, *flows, *seed, *parallel)
	sort.Slice(rows, func(i, j int) bool { return rows[i].TR < rows[j].TR })
	cfg := blink.Config{}.Defaults()

	fmt.Printf("§3.1 prefix survey — %d synthetic prefixes, Blink defaults (%d cells, %g min reset)\n\n",
		*n, cfg.Cells, cfg.ResetPeriod/60)
	fmt.Printf("%-8s %12s %8s %10s %14s %16s\n",
		"prefix", "meanFlowDur", "pps", "tR (s)", "required qm", "E[hit] @ qm=5.25%")
	for _, r := range rows {
		hit := fmt.Sprintf("%8.0f s", r.HitAtPaperQm)
		if r.HitAtPaperQm > cfg.ResetPeriod {
			hit = " >budget"
		}
		fmt.Printf("%-8s %10.1fs %8.1f %10.2f %14.4f %16s\n",
			r.Name, r.MeanDuration, r.PPS, r.TR, r.RequiredQm, hit)
	}

	trs := make([]float64, len(rows))
	ge10, feasible := 0, 0
	for i, r := range rows {
		trs[i] = r.TR
		if r.TR >= 10 {
			ge10++
		}
		if r.HitAtPaperQm <= cfg.ResetPeriod {
			feasible++
		}
	}
	fmt.Printf("\nmedian tR: %.1f s   mean: %.1f s   prefixes with tR >= 10 s: %d/%d\n",
		stats.Median(trs), stats.Mean(trs), ge10, len(rows))
	fmt.Printf("prefixes attackable at the paper's qm=5.25%% within one reset budget: %d/%d\n", feasible, len(rows))
	fmt.Printf("\npaper: median tR ~5 s across the top-20 prefixes; longer tR requires higher qm.\n")
}

func e3(b *strings.Builder, quick bool, seed uint64, workers int) {
	legit := genuineFailover()
	res := blink.RunHijack(blink.HijackConfig{Seed: seed})
	fmt.Fprintf(b, "\n## E3 — end-to-end Blink behaviour\n")
	fmt.Fprintf(b, "- genuine failure: detected in %.2fs, %d/%d flows recovered via backup\n",
		legit.DetectionLatency, legit.RecoveredFlows, legit.Config.Flows)
	fmt.Fprintf(b, "- hijack: attacker held %d/%d cells at trigger; reroute %.2fs after the storm; %d packets crossed the attacker router\n",
		res.MaliciousCellsAtTrigger, res.Config.Blink.Cells, res.Latency, res.HijackedPackets)
	fmt.Fprintf(b, "- paper: single-host-level attacker can induce rerouting onto a path she controls\n")
}

// genuineFailover is Blink's intended function: a real primary-path
// failure at t=20 s with real TCP flows (E3's baseline).
func genuineFailover() *blink.FailoverResult {
	return blink.RunFailover(blink.FailoverConfig{FailAt: 20, Duration: 45})
}

func blinkHijack() {
	var (
		seed     = cli.Seed("")
		trigger  = flag.Float64("trigger", 150, "attack trigger time (s)")
		duration = flag.Float64("duration", 200, "horizon (s)")
		mal      = flag.Int("malflows", 80, "attacker flow pool")
		legit    = flag.Int("legitflows", 400, "legitimate flow population")
		defended = flag.Bool("defended", false, "install the §5 RTO-plausibility supervisor")
		legitRun = flag.Bool("legit", false, "run a genuine failure instead of the attack")
		runs     = flag.Int("runs", 1, "independent seeded trials (>1 prints ensemble statistics)")
		parallel = cli.Parallel("")
	)
	defer start("duireport blink-hijack")()

	if *legitRun {
		res := genuineFailover()
		fmt.Printf("Blink legitimate operation — real failure at t=%.0fs\n", res.FailureAt)
		fmt.Printf("  rerouted: %v at t=%.2fs (detection latency %.2fs)\n",
			res.Rerouted, res.RerouteTime, res.DetectionLatency)
		fmt.Printf("  flows recovered after failover: %d/%d\n", res.RecoveredFlows, res.Config.Flows)
		fmt.Printf("  retransmission gaps observed: %d (RTO-shaped; supervisor training signal)\n", len(res.RetransGaps))
		return
	}

	cfg := blink.HijackConfig{
		Seed: *seed, TriggerAt: *trigger, Duration: *duration,
		MalFlows: *mal, LegitFlows: *legit,
	}
	if *defended {
		model := supervisor.DefaultRTOModel()
		cfg.Hook = func(p *blink.Pipeline) { supervisor.GuardPipeline(p, model) }
	}

	if *runs > 1 {
		ens := blink.Summarize(blink.HijackTrials(cfg, *runs, *parallel))
		fmt.Printf("§3.1 Blink traffic hijack — %d seeded trials (qm=%.2f, trigger at %.0fs, defended=%v)\n",
			ens.Trials, float64(*mal)/float64(*legit), *trigger, *defended)
		fmt.Printf("  attack succeeded (reroute onto attacker path): %d/%d trials\n", ens.Rerouted, ens.Trials)
		fmt.Printf("  attacker-held cells at trigger: %.1f mean\n", ens.CellsMean)
		if ens.Rerouted > 0 {
			fmt.Printf("  reroute latency after the storm: mean %.2fs, p95 %.2fs\n", ens.LatencyMean, ens.LatencyP95)
		}
		fmt.Printf("  victim packets through the attacker across all trials: %d\n", ens.HijackedPackets)
		return
	}

	res := blink.RunHijack(cfg)

	fmt.Printf("§3.1 Blink traffic hijack (qm=%.2f, trigger at %.0fs, defended=%v)\n",
		float64(res.Config.MalFlows)/float64(res.Config.LegitFlows), *trigger, *defended)
	fmt.Printf("  malicious cells at trigger: %d/%d (threshold %d)\n",
		res.MaliciousCellsAtTrigger, res.Config.Blink.Cells, res.Config.Blink.Threshold())
	if res.Rerouted {
		fmt.Printf("  HIJACKED: reroute at t=%.2fs (%.2fs after the storm started)\n", res.RerouteTime, res.Latency)
		fmt.Printf("  victim traffic through the attacker's router: %d packets\n", res.HijackedPackets)
	} else {
		fmt.Printf("  no reroute (attack failed or was blocked)\n")
	}
	if res.VetoedReroutes > 0 {
		fmt.Printf("  supervisor vetoed %d reroute attempt(s): retransmission timing did not match the RTO model\n",
			res.VetoedReroutes)
	}
}

func e4(b *strings.Builder, quick bool, seed uint64, workers int) {
	dur := 120.0
	flows := 10
	if quick {
		dur, flows = 60, 4
	}
	runs := pcc.OscSweep([]pcc.OscConfig{
		{Duration: dur, Seed: seed},
		{Duration: dur, Seed: seed, Attack: true},
		{Flows: flows, Duration: dur, Seed: seed},
		{Flows: flows, Duration: dur, Seed: seed, Attack: true},
	}, workers)
	clean, attacked, fleetC, fleetA := runs[0], runs[1], runs[2], runs[3]
	_, amp := pcc.ForcedOscillation(0.05, 10)
	fmt.Fprintf(b, "\n## E4 — PCC utility equalizer\n")
	fmt.Fprintf(b, "- single flow: clean %.0f pkts/s vs attacked %.0f pkts/s (capacity 1000); oscillation %.1f%%; drop budget %.2f%%\n",
		clean.MeanRateLate, attacked.MeanRateLate, 100*attacked.Flows[0].OscAmplitude, 100*attacked.DropFraction)
	fmt.Fprintf(b, "- fleet of %d flows: aggregate %.0f -> %.0f pkts/s; arrival CV %.2f%% -> %.2f%%\n",
		flows, fleetC.AggMeanLate, fleetA.AggMeanLate,
		100*fleetC.AggCV, 100*fleetA.AggCV)
	fmt.Fprintf(b, "- analytic model: tied trials escalate ε to the 5%% cap -> ±5%% forced oscillation (peak-to-peak %.0f%%)\n", 100*amp)
	fmt.Fprintf(b, "- paper: flows fluctuate ±5%% without converging; fleet-level traffic fluctuation at the destination\n")
}

func pccOscillate() {
	var (
		flows    = flag.Int("flows", 1, "concurrent PCC flows to one destination")
		duration = flag.Float64("duration", 120, "horizon (s)")
		seed     = cli.Seed("")
		capacity = flag.Float64("capacity", 1000, "per-flow bottleneck capacity (pkts/s)")
		miTrace  = flag.Bool("mitrace", false, "dump flow 0's monitor-interval records")
	)
	defer start("duireport pcc-oscillate")()

	cfg := pcc.OscConfig{Flows: *flows, Duration: *duration, Seed: *seed, CapacityPPS: *capacity}
	clean := pcc.RunOscillation(cfg)
	cfg.Attack = true
	attacked := pcc.RunOscillation(cfg)

	fmt.Printf("§4.2 PCC under the utility equalizer — %d flow(s), capacity %.0f pkts/s\n\n", *flows, *capacity)
	fmt.Printf("%-22s %14s %14s\n", "", "clean", "attacked")
	fmt.Printf("%-22s %12.0f %14.0f   pkts/s (late mean base rate)\n", "rate", clean.MeanRateLate, attacked.MeanRateLate)
	fmt.Printf("%-22s %13.1f%% %13.1f%%  (peak-to-peak / mean, late)\n", "rate oscillation",
		100*clean.Flows[0].OscAmplitude, 100*attacked.Flows[0].OscAmplitude)
	fmt.Printf("%-22s %13.2f%% %13.2f%%\n", "aggregate arrival CV", 100*clean.AggCV, 100*attacked.AggCV)
	fmt.Printf("%-22s %14s %13.2f%%  of packets dropped by the MitM\n", "attack budget", "-", 100*attacked.DropFraction)

	_, amp := pcc.ForcedOscillation(0.05, 10)
	fmt.Printf("\nanalytic §4.2 model: with every trial tied, ε escalates 0.01→0.05 and the rate\n")
	fmt.Printf("fluctuates ±5%% forever (peak-to-peak %.0f%% of base) without converging.\n", 100*amp)

	if *miTrace {
		fmt.Printf("\nflow 0 monitor intervals (attacked):\n")
		for _, r := range attacked.Records {
			fmt.Printf("  t=%6.1f rate=%7.1f role=%-7s loss=%.3f u=%9.2f eps=%.2f state=%s\n",
				r.Start, r.Rate, r.Role, r.Loss, r.Utility, r.Eps, r.State)
		}
	}
}

func e5(b *strings.Builder, quick bool, seed uint64, workers int) {
	cfg := pytheas.SimConfig{Seed: seed}
	if quick {
		cfg.Sessions, cfg.Epochs = 500, 150
	}
	fractions := []float64{0, 0.1, 0.2, 0.3}
	rows := pytheas.PoisonSweep(cfg, fractions, 5, workers)
	fmt.Fprintf(b, "\n## E5 — Pytheas group poisoning\n")
	for i, f := range fractions {
		fmt.Fprintf(b, "- botnet %.0f%%: honest QoE %.2f, %.0f%% of honest sessions still on the good option\n",
			100*f, rows[i].HonestQoELate, 100*rows[i].GoodShareLate)
	}
	out := pytheas.RunThrottle(cfg)
	fmt.Fprintf(b, "- throttle attack: QoE %.2f -> %.2f, peak stampede %.0f%% onto the capacity-limited site\n",
		out.Baseline.HonestQoELate, out.Attacked.HonestQoELate, 100*out.PeakStampedeShare)
	fmt.Fprintf(b, "- paper: a minority of manipulated clients drives group-wide decisions; throttling stampedes/overloads a CDN site\n")
}

func pytheasPoison() {
	var (
		sessions   = flag.Int("sessions", 1000, "group population")
		epochs     = flag.Int("epochs", 300, "simulation epochs")
		seed       = cli.Seed("")
		multiplier = flag.Int("multiplier", 5, "fake reports per bot per epoch")
	)
	defer start("duireport pytheas-poison")()

	fractions := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}
	base := pytheas.SimConfig{Sessions: *sessions, Epochs: *epochs, Seed: *seed}

	fmt.Printf("§4.1 Pytheas report poisoning — %d sessions, bots submit %dx report volume\n\n", *sessions, *multiplier)
	fmt.Printf("%-10s | %-28s | %-28s\n", "", "mean aggregation (default)", "defense: dedup + MAD filter")
	fmt.Printf("%-10s | %12s %14s | %12s %14s\n", "botnet f", "honest QoE", "on good opt", "honest QoE", "on good opt")

	defended := base
	defended.E2.Aggregate = pytheas.MADFiltered(3)
	defended.DedupReports = true

	vuln := pytheas.PoisonSweep(base, fractions, *multiplier, 0)
	prot := pytheas.PoisonSweep(defended, fractions, *multiplier, 0)
	for i := range fractions {
		fmt.Printf("%-10.2f | %12.2f %13.0f%% | %12.2f %13.0f%%\n",
			fractions[i],
			vuln[i].HonestQoELate, 100*vuln[i].GoodShareLate,
			prot[i].HonestQoELate, 100*prot[i].GoodShareLate)
	}

	fmt.Printf("\n§4.1 selective throttling (MitM/operator): coverage %.0f%% of sessions, severity %g\n",
		100*pytheas.ThrottleCoverage, pytheas.ThrottleSeverity)
	out := pytheas.RunThrottle(base)
	fmt.Printf("  baseline honest QoE: %.2f -> attacked: %.2f (drop %.2f)\n",
		out.Baseline.HonestQoELate, out.Attacked.HonestQoELate, out.QoEDrop)
	fmt.Printf("  peak stampede onto the capacity-limited fallback site: %.0f%% of the group\n",
		100*out.PeakStampedeShare)
	fmt.Printf("  (the group oscillates between the throttled site and the overloaded one)\n")
}

func e6(b *strings.Builder, quick bool, seed uint64, workers int) {
	h := hideHottestLink()
	virt, m := nethide.Obfuscate(h.g, h.pairs, nethide.Config{DensityCap: 30}, stats.NewRNG(seed))
	atk := nethide.EvaluateAttack(h.phys, nethide.Survey(virt, h.pairs))
	lieAtk := nethide.EvaluateAttack(h.phys, h.view)
	fmt.Fprintf(b, "\n## E6 — NetHide / fake topologies\n")
	fmt.Fprintf(b, "- Abilene: hottest link %s-%s density %d; NetHide cap 30 -> virt max %d, accuracy %.3f, utility %.3f, attack success %.2f\n",
		h.g.Name(h.a), h.g.Name(h.b), h.density, m.MaxDensityVirt, m.Accuracy, m.Utility, atk.Success)
	fmt.Fprintf(b, "- malicious operator: hidden link visible=%v; attacker success on the lie %.2f\n",
		nethide.HiddenLinkVisible(h.view, h.a, h.b), lieAtk.Success)
	fmt.Fprintf(b, "- paper: unauthenticated ICMP lets whoever answers traceroute control the learned topology\n")
}

// hiddenLink is §4.3's malicious operator on Abilene: lie hides the
// hottest physical link a–b, and view is what traceroute then shows.
type hiddenLink struct {
	g               *graph.Graph
	pairs           []nethide.Pair
	phys, lie, view nethide.PathMap
	a, b            graph.NodeID
	density         int
}

func hideHottestLink() hiddenLink {
	g := graph.Abilene()
	pairs := nethide.AllPairs(g)
	phys := nethide.ShortestPaths(g, pairs)
	hot, density := phys.MaxDensity()
	lie := nethide.MaliciousTopology(g, pairs, hot.A, hot.B)
	return hiddenLink{g, pairs, phys, lie, nethide.Survey(lie, pairs), hot.A, hot.B, density}
}

func nethideTrace() {
	var (
		seed     = cli.Seed("")
		parallel = cli.Parallel("trial workers for the cap sweep (0 = all cores; results identical at any setting)")
	)
	defer start("duireport nethide-trace")()

	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"abilene", graph.Abilene()},
		{"fattree4", graph.FatTree(4)},
		{"rand16", graph.RandomConnected(16, 24, stats.NewRNG(*seed))},
	}

	fmt.Printf("§4.3 / NetHide — topology obfuscation and traceroute deception\n\n")
	fmt.Printf("%-9s %5s | %8s %8s | %8s %8s | %12s\n",
		"topology", "cap", "physMax", "virtMax", "accuracy", "utility", "attackSuccess")
	for _, tc := range topos {
		pairs := nethide.AllPairs(tc.g)
		phys := nethide.ShortestPaths(tc.g, pairs)
		_, physMax := phys.MaxDensity()
		caps := []int{int(0.75 * float64(physMax)), int(0.5 * float64(physMax))}
		for _, row := range nethide.SweepCaps(tc.g, pairs, caps, nethide.Config{}, *seed, *parallel) {
			m := row.Metrics
			fmt.Printf("%-9s %5d | %8d %8d | %8.3f %8.3f | %12.2f\n",
				tc.name, row.Cap, m.MaxDensityPhys, m.MaxDensityVirt, m.Accuracy, m.Utility, row.AttackSuccess)
		}
	}

	h := hideHottestLink()
	met := nethide.Evaluate(h.phys, h.view)
	atk := nethide.EvaluateAttack(h.phys, h.view)
	fmt.Printf("\nmalicious operator on Abilene: hides the hottest link %s–%s (density %d)\n",
		h.g.Name(h.a), h.g.Name(h.b), h.density)
	fmt.Printf("  hidden link visible in any traceroute: %v\n", nethide.HiddenLinkVisible(h.view, h.a, h.b))
	fmt.Printf("  view accuracy: %.3f   utility: %.3f (the lie is unconstrained)\n", met.Accuracy, met.Utility)
	fmt.Printf("  attacker planning on the lie achieves %.0f%% of the ground-truth attack\n", 100*atk.Success)

	// Show one concrete traceroute before/after.
	src, _ := h.g.NodeByName("SEA")
	dst, _ := h.g.NodeByName("NYC")
	fmt.Printf("\ntraceroute SEA->NYC, truth: %s\n", renderPath(h.g, nethide.Traceroute(h.phys, src, dst)))
	fmt.Printf("traceroute SEA->NYC, lie:   %s\n", renderPath(h.g, nethide.Traceroute(h.lie, src, dst)))
}

func renderPath(g *graph.Graph, hops []graph.NodeID) string {
	names := make([]string, len(hops))
	for i, h := range hops {
		names[i] = g.Name(h)
	}
	return strings.Join(names, " -> ")
}

func e7(b *strings.Builder, quick bool, seed uint64, workers int) {
	sp := sppifo.Experiment{Queues: 8, Seed: seed}.Run()
	var crafted, random sketch.PollutionRow
	for _, r := range (sketch.PollutionExperiment{Seed: seed}).Run([]int{400}) {
		if r.Crafted {
			crafted = r
		} else {
			random = r
		}
	}
	vic, others := sketch.PollutionExperiment{Seed: seed}.RunTargeted()
	probe := delayProbes(seed)
	fmt.Fprintf(b, "\n## E7 — §3.2 breadth\n")
	fmt.Fprintf(b, "- SP-PIFO (8 queues): adversarial ranks amplify excess unpifoness %.1fx over random arrivals\n", sp.Amplification)
	fmt.Fprintf(b, "- FlowRadar: 400 crafted flows -> %.0f%% of attack traffic invisible (random: %.0f%% decoded); targeted victim hidden=%v with %.0f%% collateral-free legit decode\n",
		100*(1-crafted.AttackDecoded), 100*random.AttackDecoded, !vic, 100*others)
	fmt.Fprintf(b, "- RON: +200ms on probes only diverts the victim pair (latency x%.2f) touching %.2f%% of packets\n",
		probe.Inflation, 100*probe.TamperBudget)
	misblame := dapper.Run(dapper.TrueSender, dapper.InjectRetransmissions, 20)
	fmt.Fprintf(b, "- DAPPER: duplicated segments flip a sender-limited flow's diagnosis to %s (%d injected packets)\n",
		misblame.Diagnosis, misblame.Budget)
	exh := conntrack.RunExhaustion(conntrack.ExhaustionConfig{Seed: seed, AttackSYNRate: 2000})
	fmt.Fprintf(b, "- state exhaustion: 2000 SYN/s fills the 4000-entry table; %.0f%% of legit connections break at the next pool update\n",
		100*exh.BrokenFraction)
	acc, evRows := bnn.Experiment{Seed: seed | 1}.Run([]int{4})
	for _, r := range evRows {
		if r.Crafted {
			fmt.Fprintf(b, "- in-network BNN (%.0f%% accurate): %.0f%% evasion with %.1f crafted bit flips on average\n",
				100*acc, 100*r.SuccessRate, r.MeanFlips)
		}
	}
}

// delayProbes is E7's RON attack: +200 ms on the probes of victim pair
// (0,1) in an 8-node overlay, data packets untouched.
func delayProbes(seed uint64) ron.Outcome {
	return ron.RunProbeAttack(seed, func(o *ron.Overlay) (ron.ProbeTamper, int) {
		return ron.DelayProbes(0, 1, 0.2), -1
	})
}

func dataplaneAttacks() {
	var seed = cli.Seed("")
	defer start("duireport dataplane-attacks")()

	fmt.Printf("§3.2 breadth attacks\n")

	// SP-PIFO: adversarial rank sequences vs the random-arrival design
	// assumption, across queue counts (the ablation DESIGN.md calls out).
	fmt.Printf("\n[SP-PIFO] excess unpifoness over an ideal PIFO (same arrivals)\n")
	fmt.Printf("%-8s %14s %14s %14s %12s\n", "queues", "random ranks", "adversarial", "amplification", "victim delay")
	for _, k := range []int{2, 4, 8, 16, 32} {
		out := sppifo.Experiment{Queues: k, Seed: *seed}.Run()
		fmt.Printf("%-8d %14d %14d %13.1fx %9.1f pkt\n",
			k, out.RandomExcess, out.AdversarialExcess, out.Amplification, out.Adversarial.VictimDelay)
	}

	// FlowRadar pollution.
	fmt.Printf("\n[FlowRadar] crafted vs random extra flows (4096 cells, k=3, 1500 legit flows)\n")
	fmt.Printf("%-14s %10s | %14s %14s %10s\n", "attack flows", "crafted", "legit decoded", "attack decoded", "residue")
	for _, r := range (sketch.PollutionExperiment{Seed: *seed}).Run([]int{200, 400, 800, 3000}) {
		fmt.Printf("%-14d %10v | %13.1f%% %13.1f%% %10d\n",
			r.AttackFlows, r.Crafted, 100*r.LegitDecoded, 100*r.AttackDecoded, r.Residue)
	}
	vic, others := sketch.PollutionExperiment{Seed: *seed}.RunTargeted()
	fmt.Printf("targeted hiding: victim flow decoded=%v, other legit flows decoded=%.1f%%\n", vic, 100*others)

	rng := stats.NewRNG(*seed)
	randomN := sketch.SaturationInsertions(false, rng.Child())
	craftedN := sketch.SaturationInsertions(true, rng.Child())
	fmt.Printf("bloom saturation to %.0f%% FPR: crafted %d insertions vs random %d (%.1fx advantage)\n",
		100*sketch.SaturationFPR, craftedN, randomN, float64(randomN)/float64(craftedN))

	// RON probe manipulation.
	fmt.Printf("\n[RON] probe-only tampering on an %d-node overlay, victim pair (%d,%d)\n",
		ron.AttackNodes, ron.VictimSrc, ron.VictimDst)
	delay := delayProbes(*seed)
	fmt.Printf("  delay probes +200ms: diverted=%v, data latency %.1fms -> %.1fms (x%.2f), budget %.2f%% of packets\n",
		delay.Diverted, 1000*delay.CleanLatency, 1000*delay.AttackedLatency, delay.Inflation, 100*delay.TamperBudget)
	drop := ron.RunProbeAttack(*seed, func(o *ron.Overlay) (ron.ProbeTamper, int) {
		return ron.DropProbes(0, 1), -1
	})
	fmt.Printf("  drop probes (fake dead path): diverted=%v, data latency x%.2f\n", drop.Diverted, drop.Inflation)
	steer := ron.RunProbeAttack(*seed, func(o *ron.Overlay) (ron.ProbeTamper, int) {
		return ron.SteerVia(0, 1, 5, 0.2), 5
	})
	fmt.Printf("  steer via attacker node 5: routed through it=%v (privacy: attacker now on-path)\n", steer.ViaAttacker)

	// DAPPER diagnosis mis-blaming.
	fmt.Printf("\n[DAPPER] TCP diagnosis confusion matrix (rows: ground truth; columns: attack)\n")
	fmt.Printf("%-10s | %-16s %-22s %-16s %-16s\n", "truth", "none", "inject-retrans", "shrink-window", "inflate-window")
	byKey := map[[2]string]string{}
	for _, o := range dapper.ConfusionMatrix() {
		byKey[[2]string{o.Scenario.String(), o.Attack.String()}] = o.Diagnosis.String()
	}
	for _, sc := range []string{"network", "receiver", "sender"} {
		fmt.Printf("%-10s | %-16s %-22s %-16s %-16s\n", sc,
			byKey[[2]string{sc, "none"}], byKey[[2]string{sc, "inject-retransmissions"}],
			byKey[[2]string{sc, "shrink-window"}], byKey[[2]string{sc, "inflate-window"}])
	}

	// SilkRoad-style state exhaustion.
	fmt.Printf("\n[per-connection state] 4000-entry table, 1000 legit connections, pool update at t=30s\n")
	fmt.Printf("%-14s %14s %14s %14s\n", "SYN flood/s", "occupancy", "broken legit", "rejected")
	for _, rate := range []float64{0, 900, 2000, 4000} {
		res := conntrack.RunExhaustion(conntrack.ExhaustionConfig{Seed: *seed, AttackSYNRate: rate})
		fmt.Printf("%-14.0f %14d %13.0f%% %14d\n", rate, res.TableOccupancy, 100*res.BrokenFraction, res.Rejected)
	}

	// In-network BNN adversarial examples.
	fmt.Printf("\n[in-network BNN] adversarial header-bit flips vs the line-rate classifier\n")
	acc, rows2 := bnn.Experiment{Seed: *seed | 1}.Run([]int{1, 2, 4, 6})
	fmt.Printf("student accuracy vs ground truth: %.1f%%\n", 100*acc)
	fmt.Printf("%-8s | %-10s %14s %12s\n", "budget", "crafted", "evasion rate", "mean flips")
	for _, r := range rows2 {
		fmt.Printf("%-8d | %-10v %13.0f%% %12.1f\n", r.Budget, r.Crafted, 100*r.SuccessRate, r.MeanFlips)
	}
}

// e8 formats the §5 countermeasure evaluation that robustness
// -defense-eval renders in full.
func e8(b *strings.Builder, quick bool, seed uint64, workers int) {
	d := robustness.EvalDefenses(seed, workers)
	fmt.Fprintf(b, "\n## E8 — §5 countermeasures\n")
	fmt.Fprintf(b, "- Blink guard: genuine failover still works (rerouted=%v, latency %.2fs, 0 vetoes=%v); hijack blocked (rerouted=%v, %d vetoes)\n",
		d.Genuine.Rerouted, d.Genuine.DetectionLatency, d.Genuine.VetoedReroutes == 0, d.Hijack.Rerouted, d.Hijack.VetoedReroutes)
	fmt.Fprintf(b, "- Pytheas: attacked QoE %.2f -> defended %.2f (dedup + MAD filtering)\n",
		d.PytheasAttacked, d.PytheasDefended)
	fmt.Fprintf(b, "- PCC: equalizer detected: %s\n", d.PCCAttacked)
	// The widest and the narrowest clamp.
	for _, c := range []robustness.EpsClamp{d.Clamps[0], d.Clamps[len(d.Clamps)-1]} {
		fmt.Fprintf(b, "- PCC ε clamp %.2f bounds forced oscillation to ±%.0f%%\n", c.Cap, 100*c.Amp/2)
	}
}

func last(s *stats.Series) float64 { return s.Values[len(s.Values)-1] }

// runCampaign runs the campaign subcommand tool's spec under env, inline
// or on the duid server at server, and returns the canonical result
// bytes; progress prints the completed-trial count to stderr every 50
// trials and at the last. A spec campaign.JobSpec.Canon rejects is a
// usage error (exit 2). A failed run exits 1, except a fuzz campaign's,
// which exits 2: simfuzz's exit 1 means the oracles caught failures.
func runCampaign(tool, server string, spec campaign.JobSpec, env campaign.Env, progress bool) []byte {
	if _, err := spec.Canon(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		exit(2)
	}
	if progress {
		lastDone := -1
		next := env.OnProgress
		env.OnProgress = func(p campaign.Progress) { // calls are serialized
			if next != nil {
				next(p)
			}
			if p.Done != lastDone && (p.Done%50 == 0 || p.Done == p.Total) {
				lastDone = p.Done
				fmt.Fprintf(os.Stderr, "%s: %d/%d trials\n", tool, p.Done, p.Total)
			}
		}
	}
	raw, err := campaign.Dispatch(context.Background(), spec, server, env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		if spec.Kind == campaign.KindFuzz {
			exit(2)
		}
		exit(1)
	}
	return raw
}

// decode unmarshals tool's canonical result bytes into res, exiting 1
// on a malformed result.
func decode(tool string, raw []byte, res any) {
	if err := json.Unmarshal(raw, res); err != nil {
		fmt.Fprintf(os.Stderr, "%s: bad result: %v\n", tool, err)
		exit(1)
	}
}

func chaosEval() {
	var (
		trials   = flag.Int("trials", 10, "trials per intensity level")
		seed     = cli.Seed("root seed (trial i derives its own stream)")
		parallel = cli.Parallel("trial workers (0 = all cores; output identical at any setting)")
		levels   = flag.Int("levels", 6, "gray intensity levels, evenly spaced over [0, 1]")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of the table")
		jsonOut  = flag.Bool("json", false, "emit the canonical campaign result JSON instead of the table")
		server   = flag.String("server", "", "submit the sweep to the duid server at this URL")
		quick    = flag.Bool("quick", false, "reduced sweep (3 levels x 3 trials) for smoke runs")
	)
	defer start("duireport chaos-eval")()
	if *quick {
		*trials, *levels = 3, 3
	}
	if *jsonOut && *csvOut {
		fmt.Fprintln(os.Stderr, "chaos-eval: -json and -csv are mutually exclusive")
		exit(2)
	}

	raw := runCampaign("chaos-eval", *server, campaign.JobSpec{Kind: campaign.KindChaos, Chaos: &campaign.ChaosSpec{
		Trials: *trials, Levels: *levels, RootSeed: *seed,
	}}, campaign.Env{Workers: *parallel}, false)
	if *jsonOut {
		os.Stdout.Write(raw)
		return
	}
	var res campaign.ChaosResult
	decode("chaos-eval", raw, &res)

	if *csvOut {
		fmt.Println("eps,trials,detect_rate,median_latency_s,false_veto_rate,false_reroute_rate")
	} else {
		fmt.Printf("Blink failure inference under gray failure (%d trials/level, seed %d)\n", res.Trials, res.RootSeed)
		fmt.Printf("%6s %12s %16s %16s %18s\n", "eps", "detect", "median latency", "false vetoes", "false reroutes")
	}
	for _, r := range res.Rows {
		if *csvOut {
			fmt.Printf("%.2f,%d,%.4f,%.4f,%.4f,%.4f\n",
				r.Eps, r.Trials, r.DetectRate, r.MedianLatency, r.FalseVetoRate, r.FalseRerouteRate)
		} else {
			fmt.Printf("%6.2f %11.0f%% %15.3fs %15.0f%% %17.0f%%\n",
				r.Eps, 100*r.DetectRate, r.MedianLatency, 100*r.FalseVetoRate, 100*r.FalseRerouteRate)
		}
	}
}

func robustnessMatrix() {
	var (
		systems  = flag.String("systems", "", "comma-separated system subset (default all: "+strings.Join(robustness.SystemNames(), ",")+")")
		profiles = flag.String("profiles", "", "comma-separated fault profiles (default all: none,gray,flap,degrade)")
		trials   = flag.Int("trials", 2, "twin-run reps per matrix cell")
		seed     = cli.Seed("root seed (every rep derives its own stream)")
		parallel = cli.Parallel("trial workers (0 = all cores; output identical at any setting)")
		jsonOut  = flag.Bool("json", false, "emit the canonical campaign result JSON instead of the table")
		server   = flag.String("server", "", "submit the matrix to the duid server at this URL")
		quick    = flag.Bool("quick", false, "reduced per-cell simulations for smoke runs")
		defense  = flag.Bool("defense-eval", false, "render the E8 §5 countermeasure report instead of the matrix")
	)
	defer start("duireport robustness")()

	if *defense {
		robustness.WriteDefenseEval(os.Stdout, *seed, *parallel)
		return
	}

	raw := runCampaign("robustness", *server, campaign.JobSpec{Kind: campaign.KindRobustness, Robustness: &campaign.RobustnessSpec{
		Systems:  splitList(*systems),
		Profiles: splitList(*profiles),
		Trials:   *trials,
		RootSeed: *seed,
		Quick:    *quick,
	}}, campaign.Env{Workers: *parallel}, false)
	if *jsonOut {
		os.Stdout.Write(raw)
		return
	}
	var res campaign.RobustnessResult
	decode("robustness", raw, &res)
	fmt.Printf("Robustness matrix: %d systems x attacks x guard arms x %d profiles, %d trials/cell (seed %d)\n",
		len(res.Systems), len(res.Profiles), res.Trials, res.RootSeed)
	fmt.Print(robustness.RenderTable(res.Cells))
}

// splitList parses a comma-separated flag into its non-empty entries.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func advSearch() {
	var (
		system   = flag.String("system", "all", "blink | pytheas | pcc | all")
		guarded  = flag.String("guarded", "both", "on | off | both")
		searcher = flag.String("searcher", "cem", "cem | anneal")
		seed     = cli.Seed("root seed; the whole output derives from it")
		gens     = flag.Int("gens", 8, "search generations")
		pop      = flag.Int("pop", 24, "population per generation")
		validate = flag.Int("validate", 5, "validation replications per frontier candidate")
		parallel = cli.Parallel("evaluation workers (0 = all cores; output identical at any setting)")
		server   = flag.String("server", "", "submit the search to the duid server at this URL")
		quick    = flag.Bool("quick", false, "reduced budget (3x8, 2 validations) and shrunk per-eval simulations for smoke runs")
	)
	defer start("duireport advsearch")()
	if *quick {
		*gens, *pop, *validate = 3, 8, 2
	}

	var systems []string // all: the canonical default
	if *system != "all" {
		systems = []string{*system}
	}
	os.Stdout.Write(runCampaign("advsearch", *server, campaign.JobSpec{Kind: campaign.KindAdv, Adv: &campaign.AdvSpec{
		Systems: systems, Guarded: *guarded, Searcher: *searcher,
		Seed: *seed, Gens: *gens, Pop: *pop, Validate: *validate, Quick: *quick,
	}}, campaign.Env{Workers: *parallel}, false))
}
