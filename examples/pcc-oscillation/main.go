// PCC oscillation walkthrough (§4.2): a clean PCC flow converging to its
// bottleneck, the utility-equalizer MitM pinning it near its start rate,
// and the analytic ±5% forced-oscillation ladder.
//
//	go run ./examples/pcc-oscillation
package main

import (
	"fmt"

	"dui/internal/pcc"
)

func main() {
	clean := pcc.RunOscillation(pcc.OscConfig{Duration: 90, Seed: 2})
	attacked := pcc.RunOscillation(pcc.OscConfig{Duration: 90, Seed: 2, Attack: true})

	fmt.Println("== PCC Allegro, 1000 pkts/s bottleneck ==")
	fmt.Printf("clean:    converges to %.0f pkts/s\n", clean.MeanRateLate)
	fmt.Printf("attacked: pinned at %.0f pkts/s, oscillating %.1f%% — the MitM dropped only %.2f%% of packets\n",
		attacked.MeanRateLate, 100*attacked.Flows[0].OscAmplitude, 100*attacked.DropFraction)

	fmt.Println("\nfirst monitor intervals of the attacked flow:")
	for i, r := range attacked.Records {
		if i >= 10 {
			break
		}
		fmt.Printf("  t=%4.1fs rate=%6.1f role=%-7s loss=%.3f utility=%8.2f\n",
			r.Start, r.Rate, r.Role, r.Loss, r.Utility)
	}

	trace, amp := pcc.ForcedOscillation(0.01, 0.05, 8)
	fmt.Printf("\nanalytic model — ε per decision round when every trial ties: %v\n", trace)
	fmt.Printf("steady state: the flow probes rate·(1±0.05) forever: ±5%% oscillation (peak-to-peak %.0f%%)\n", 100*amp)
}
