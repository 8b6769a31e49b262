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
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"strings"

	"dui"
	"dui/internal/blink"
	"dui/internal/cli"
	"dui/internal/conntrack"
	"dui/internal/nethide"
	"dui/internal/prof"
	"dui/internal/robustness"
	"dui/internal/runner"
	"dui/internal/sketch"
	"dui/internal/stats"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced-scale smoke run")
		seed     = cli.Seed("")
		parallel = cli.Parallel("workers for sections and trials (0 = all cores; report identical at any setting)")
	)
	cli.Parse("duireport")
	defer prof.Start()()

	fmt.Printf("# Reproduction report (seed %d, quick=%v)\n", *seed, *quick)

	sections := []func(quick bool, seed uint64, workers int) string{
		e1, e2, e3, e4, e5, e6, e7, e8,
	}
	outputs, _ := runner.Map(context.Background(), sections, *seed, runner.Config{Workers: *parallel},
		func(_ context.Context, t runner.Trial, section func(bool, uint64, int) string) (string, error) {
			return section(*quick, *seed, *parallel), nil
		})
	for _, out := range outputs {
		fmt.Print(out)
	}
}

func e1(quick bool, seed uint64, workers int) string {
	var b strings.Builder
	cfg := dui.Fig2Config{Seed: seed, Parallel: workers}
	if quick {
		cfg.Runs, cfg.Duration, cfg.LegitFlows = 4, 400, 2000
	}
	res := dui.RunFig2(cfg)
	var hits []float64
	missed := 0
	for _, h := range res.HitTimes {
		if math.IsNaN(h) {
			missed++
		} else {
			hits = append(hits, h)
		}
	}
	fmt.Fprintf(&b, "\n## E1 — Fig 2: malicious flows sampled by Blink\n")
	fmt.Fprintf(&b, "- parameters: tR=%.2fs (measured %.2fs), qm=%.4f, %d runs\n",
		res.Config.TR, res.MeasuredTR, res.Config.Qm, res.Config.Runs)
	fmt.Fprintf(&b, "- theory: E[hit 32 cells]=%.0fs (p5 %.0fs, p95 %.0fs); mean curve crosses 32 at %.0fs\n",
		res.TheoryExpectedHit, res.TheoryHitP5, res.TheoryHitP95, crossing(res.TheoryMean, 32))
	if len(hits) > 0 {
		fmt.Fprintf(&b, "- simulation: mean hit %.0fs, median %.0fs, p5 %.0fs, p95 %.0fs (%d/%d runs reached majority)\n",
			stats.Mean(hits), stats.Median(hits), stats.Quantile(hits, 0.05), stats.Quantile(hits, 0.95),
			len(hits), res.Config.Runs)
	}
	fmt.Fprintf(&b, "- end-of-run sample: sim %.1f cells, theory %.1f, finite-pool bound %.1f\n",
		last(res.SimMean), last(res.TheoryMean), blink.ExpectedCapturable(res.Config.Blink.Cells, res.Config.MalFlows()))
	fmt.Fprintf(&b, "- paper: avg 172s to majority, simulations ~200s, sample saturates high\n")
	return b.String()
}

func e2(quick bool, seed uint64, workers int) string {
	var b strings.Builder
	n, flows := 20, 500
	if quick {
		n, flows = 8, 250
	}
	prefixes := dui.SyntheticSurvey(n, seed)
	rows := dui.RunSurveyN(dui.BlinkConfig{}, prefixes, flows, seed+1, workers)
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
	fmt.Fprintf(&b, "\n## E2 — prefix survey (tR and required qm)\n")
	fmt.Fprintf(&b, "- %d synthetic prefixes: median tR %.1fs, %d/%d with tR>=10s\n",
		n, stats.Median(trs), ge10, n)
	fmt.Fprintf(&b, "- prefixes attackable at qm<=5.25%% within one reset: %d/%d\n", feasible, n)
	fmt.Fprintf(&b, "- required qm is monotone in tR (theory property, verified in tests)\n")
	fmt.Fprintf(&b, "- paper: median tR ~5s; half of prefixes ~10s; longer tR needs higher qm\n")
	return b.String()
}

func e3(quick bool, seed uint64, workers int) string {
	var b strings.Builder
	legit := dui.RunFailover(dui.FailoverConfig{FailAt: 20, Duration: 45})
	res := dui.RunHijack(dui.HijackConfig{Seed: seed})
	fmt.Fprintf(&b, "\n## E3 — end-to-end Blink behaviour\n")
	fmt.Fprintf(&b, "- genuine failure: detected in %.2fs, %d/%d flows recovered via backup\n",
		legit.DetectionLatency, legit.RecoveredFlows, legit.Config.Flows)
	fmt.Fprintf(&b, "- hijack: attacker held %d/64 cells at trigger; reroute %.2fs after the storm; %d packets crossed the attacker router\n",
		res.MaliciousCellsAtTrigger, res.Latency, res.HijackedPackets)
	fmt.Fprintf(&b, "- paper: single-host-level attacker can induce rerouting onto a path she controls\n")
	return b.String()
}

func e4(quick bool, seed uint64, workers int) string {
	var b strings.Builder
	dur := 120.0
	flows := 10
	if quick {
		dur, flows = 60, 4
	}
	runs := dui.OscSweep([]dui.OscConfig{
		{Duration: dur, Seed: seed},
		{Duration: dur, Seed: seed, Attack: true},
		{Flows: flows, Duration: dur, Seed: seed},
		{Flows: flows, Duration: dur, Seed: seed, Attack: true},
	}, workers)
	clean, attacked, fleetC, fleetA := runs[0], runs[1], runs[2], runs[3]
	_, amp := dui.ForcedOscillation(0.01, 0.05, 10)
	fmt.Fprintf(&b, "\n## E4 — PCC utility equalizer\n")
	fmt.Fprintf(&b, "- single flow: clean %.0f pkts/s vs attacked %.0f pkts/s (capacity 1000); oscillation %.1f%%; drop budget %.2f%%\n",
		clean.MeanRateLate, attacked.MeanRateLate, 100*attacked.Flows[0].OscAmplitude, 100*attacked.DropFraction)
	fmt.Fprintf(&b, "- fleet of %d flows: aggregate %.0f -> %.0f pkts/s; arrival CV %.2f%% -> %.2f%%\n",
		flows, lateMean(fleetC.AggSeries, dur*2/3), lateMean(fleetA.AggSeries, dur*2/3),
		100*fleetC.AggCV, 100*fleetA.AggCV)
	fmt.Fprintf(&b, "- analytic model: tied trials escalate ε to the 5%% cap -> ±5%% forced oscillation (peak-to-peak %.0f%%)\n", 100*amp)
	fmt.Fprintf(&b, "- paper: flows fluctuate ±5%% without converging; fleet-level traffic fluctuation at the destination\n")
	return b.String()
}

func e5(quick bool, seed uint64, workers int) string {
	var b strings.Builder
	cfg := dui.PytheasConfig{Seed: seed}
	if quick {
		cfg.Sessions, cfg.Epochs = 500, 150
	}
	fractions := []float64{0, 0.1, 0.2, 0.3}
	rows := dui.PoisonSweepN(cfg, fractions, 5, workers)
	fmt.Fprintf(&b, "\n## E5 — Pytheas group poisoning\n")
	for i, f := range fractions {
		fmt.Fprintf(&b, "- botnet %.0f%%: honest QoE %.2f, %.0f%% of honest sessions still on the good option\n",
			100*f, rows[i].HonestQoELate, 100*rows[i].GoodShareLate)
	}
	out := dui.RunThrottle(cfg, 0.7, 0.2)
	fmt.Fprintf(&b, "- throttle attack: QoE %.2f -> %.2f, peak stampede %.0f%% onto the capacity-limited site\n",
		out.Baseline.HonestQoELate, out.Attacked.HonestQoELate, 100*out.PeakStampedeShare)
	fmt.Fprintf(&b, "- paper: a minority of manipulated clients drives group-wide decisions; throttling stampedes/overloads a CDN site\n")
	return b.String()
}

func e6(quick bool, seed uint64, workers int) string {
	var b strings.Builder
	g := dui.Abilene()
	pairs := nethide.AllPairs(g)
	phys := nethide.ShortestPaths(g, pairs)
	hot, hotD := phys.MaxDensity()
	virt, m := dui.Obfuscate(g, pairs, dui.NetHideConfig{DensityCap: 30}, seed)
	atk := nethide.EvaluateAttack(phys, nethide.Survey(virt, pairs), 0)
	lie := dui.MaliciousTopology(g, pairs, hot.A, hot.B)
	view := nethide.Survey(lie, pairs)
	lieAtk := nethide.EvaluateAttack(phys, view, 0)
	fmt.Fprintf(&b, "\n## E6 — NetHide / fake topologies\n")
	fmt.Fprintf(&b, "- Abilene: hottest link %s-%s density %d; NetHide cap 30 -> virt max %d, accuracy %.3f, utility %.3f, attack success %.2f\n",
		g.Name(hot.A), g.Name(hot.B), hotD, m.MaxDensityVirt, m.Accuracy, m.Utility, atk.Success)
	fmt.Fprintf(&b, "- malicious operator: hidden link visible=%v; attacker success on the lie %.2f\n",
		nethide.HiddenLinkVisible(view, hot.A, hot.B), lieAtk.Success)
	fmt.Fprintf(&b, "- paper: unauthenticated ICMP lets whoever answers traceroute control the learned topology\n")
	return b.String()
}

func e7(quick bool, seed uint64, workers int) string {
	var b strings.Builder
	sp := dui.RunSPPIFO(8, seed)
	rows := dui.RunSketchPollution(seed, []int{400})
	var crafted, random sketch.PollutionRow
	for _, r := range rows {
		if r.Crafted {
			crafted = r
		} else {
			random = r
		}
	}
	vic, others := sketch.PollutionExperiment{Seed: seed}.RunTargeted(400, 2)
	probe := dui.RunProbeAttack(8, seed, 0.2)
	fmt.Fprintf(&b, "\n## E7 — §3.2 breadth\n")
	fmt.Fprintf(&b, "- SP-PIFO (8 queues): adversarial ranks amplify excess unpifoness %.1fx over random arrivals\n", sp.Amplification)
	fmt.Fprintf(&b, "- FlowRadar: 400 crafted flows -> %.0f%% of attack traffic invisible (random: %.0f%% decoded); targeted victim hidden=%v with %.0f%% collateral-free legit decode\n",
		100*(1-crafted.AttackDecoded), 100*random.AttackDecoded, !vic, 100*others)
	fmt.Fprintf(&b, "- RON: +200ms on probes only diverts the victim pair (latency x%.2f) touching %.2f%% of packets\n",
		probe.Inflation, 100*probe.TamperBudget)
	misblame := dui.RunDapper(dui.TrueSender, dui.InjectRetransmissions, 20)
	fmt.Fprintf(&b, "- DAPPER: duplicated segments flip a sender-limited flow's diagnosis to %s (%d injected packets)\n",
		misblame.Diagnosis, misblame.Budget)
	exh := dui.RunStateExhaustion(conntrack.ExhaustionConfig{Seed: seed, AttackSYNRate: 2000})
	fmt.Fprintf(&b, "- state exhaustion: 2000 SYN/s fills the 4000-entry table; %.0f%% of legit connections break at the next pool update\n",
		100*exh.BrokenFraction)
	acc, evRows := dui.RunBNNEvasion(seed|1, []int{4})
	for _, r := range evRows {
		if r.Crafted {
			fmt.Fprintf(&b, "- in-network BNN (%.0f%% accurate): %.0f%% evasion with %.1f crafted bit flips on average\n",
				100*acc, 100*r.SuccessRate, r.MeanFlips)
		}
	}
	return b.String()
}

// e8 formats the §5 countermeasure evaluation that cmd/robustness
// -defense-eval renders in full.
func e8(quick bool, seed uint64, workers int) string {
	var b strings.Builder
	d := robustness.EvalDefenses(seed, workers)
	fmt.Fprintf(&b, "\n## E8 — §5 countermeasures\n")
	fmt.Fprintf(&b, "- Blink guard: genuine failover still works (rerouted=%v, latency %.2fs, 0 vetoes=%v); hijack blocked (rerouted=%v, %d vetoes)\n",
		d.Genuine.Rerouted, d.Genuine.DetectionLatency, d.Genuine.VetoedReroutes == 0, d.Hijack.Rerouted, d.Hijack.VetoedReroutes)
	fmt.Fprintf(&b, "- Pytheas: attacked QoE %.2f -> defended %.2f (dedup + MAD filtering)\n",
		d.PytheasAttacked, d.PytheasDefended)
	fmt.Fprintf(&b, "- PCC: equalizer detected: %s\n", d.PCCAttacked)
	// The widest and the narrowest clamp.
	for _, c := range []robustness.EpsClamp{d.Clamps[0], d.Clamps[len(d.Clamps)-1]} {
		fmt.Fprintf(&b, "- PCC ε clamp %.2f bounds forced oscillation to ±%.0f%%\n", c.Cap, 100*c.Amp/2)
	}
	return b.String()
}

func crossing(s *stats.Series, level float64) float64 {
	t, _ := s.FirstCrossing(level)
	return t
}

func last(s *stats.Series) float64 { return s.Values[len(s.Values)-1] }

func lateMean(s *stats.Series, from float64) float64 {
	var sum stats.Summary
	for i := range s.Values {
		if s.Time(i) >= from {
			sum.Add(s.Values[i])
		}
	}
	return sum.Mean()
}
