// Command blink-hijack runs the §3.1 attack end to end on the network
// simulator: host-level attackers keep always-active flows toward a
// victim prefix until they dominate Blink's sample, then fake a
// retransmission storm; Blink infers a failure of the healthy primary
// path and reroutes the prefix onto a path the attacker controls.
//
// -defended installs the §5 RTO-plausibility supervisor first, and
// -legit runs Blink's intended function instead (a real failure with real
// TCP flows) to show the baseline the attack subverts.
package main

import (
	"flag"
	"fmt"

	"dui"
	"dui/internal/blink"
	"dui/internal/cli"
)

func main() {
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
	cli.Parse("blink-hijack")

	if *legitRun {
		res := dui.RunFailover(dui.FailoverConfig{FailAt: 20, Duration: 45})
		fmt.Printf("Blink legitimate operation — real failure at t=%.0fs\n", res.FailureAt)
		fmt.Printf("  rerouted: %v at t=%.2fs (detection latency %.2fs)\n",
			res.Rerouted, res.RerouteTime, res.DetectionLatency)
		fmt.Printf("  flows recovered after failover: %d/%d\n", res.RecoveredFlows, res.Config.Flows)
		fmt.Printf("  retransmission gaps observed: %d (RTO-shaped; supervisor training signal)\n", len(res.RetransGaps))
		return
	}

	cfg := dui.HijackConfig{
		Seed: *seed, TriggerAt: *trigger, Duration: *duration,
		MalFlows: *mal, LegitFlows: *legit,
	}
	if *defended {
		model := dui.DefaultRTOModel()
		cfg.Hook = func(p *blink.Pipeline) { dui.GuardPipeline(p, model) }
	}

	if *runs > 1 {
		ens := dui.SummarizeHijacks(dui.HijackTrials(cfg, *runs, *parallel))
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

	res := dui.RunHijack(cfg)

	fmt.Printf("§3.1 Blink traffic hijack (qm=%.2f, trigger at %.0fs, defended=%v)\n",
		float64(res.Config.MalFlows)/float64(res.Config.LegitFlows), *trigger, *defended)
	fmt.Printf("  malicious cells at trigger: %d/%d (threshold %d)\n",
		res.MaliciousCellsAtTrigger, res.Config.Blink.Cells, res.Config.Blink.Threshold)
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
