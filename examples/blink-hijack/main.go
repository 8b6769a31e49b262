// Blink hijack walkthrough (§3.1): first Blink doing its job — sub-second
// recovery from a real failure — then the same machinery turned against
// it by a host-level attacker, and finally the theory that predicts when
// the attack becomes feasible.
//
//	go run ./examples/blink-hijack
package main

import (
	"fmt"

	"dui/internal/blink"
)

func main() {
	// 1. The legitimate function: a real link failure, real TCP flows.
	fmt.Println("== Blink working as designed ==")
	legit := blink.RunFailover(blink.FailoverConfig{FailAt: 20, Duration: 45})
	fmt.Printf("link fails at t=%.0fs -> Blink reroutes at t=%.2fs (latency %.2fs), %d/%d flows recover\n\n",
		legit.FailureAt, legit.RerouteTime, legit.DetectionLatency,
		legit.RecoveredFlows, legit.Config.Flows)

	// 2. The attack: nothing fails, but the attacker's always-active
	// flows have taken over the monitored sample and fake a
	// retransmission storm.
	fmt.Println("== The same machinery, attacked ==")
	atk := blink.RunHijack(blink.HijackConfig{Seed: 1})
	fmt.Printf("attacker holds %d/64 sample cells at t=%.0fs, fakes retransmissions ->\n",
		atk.MaliciousCellsAtTrigger, atk.Config.TriggerAt)
	fmt.Printf("Blink reroutes the healthy prefix onto the attacker's path %.2fs later; %d packets hijacked\n\n",
		atk.Latency, atk.HijackedPackets)

	// 3. The theory (§3.1): what fraction of traffic does the attacker
	// need, as a function of how long legitimate flows stay sampled?
	fmt.Println("== Attack feasibility (theory) ==")
	fmt.Println("tR (s)   required qm (95% confidence within one 8.5min reset)")
	for _, tr := range []float64{2, 5, 8.37, 15, 30} {
		fmt.Printf("%6.2f   %.4f\n", tr, blink.RequiredQm(64, 32, tr, 510, 0.95))
	}
	fmt.Println("\nthe paper's example point: tR=8.37s, qm=0.0525 — comfortably feasible.")
}
