// Defenses walkthrough (§5): the supervisor architecture of Fig 3 in
// action — a driver (Blink) paired with a supervisor that models
// plausible behaviour, vetoes implausible reactions, and leaves the
// legitimate function intact.
//
//	go run ./examples/defenses
package main

import (
	"fmt"

	"dui"
	"dui/internal/blink"
)

func main() {
	// Train the supervisor from passive RTT measurements (no failure).
	calib := dui.RunFailover(dui.FailoverConfig{FailAt: 0, Duration: 20})
	model := dui.NewRTOModel(calib.SRTTs, 0.2)
	guard := func(p *blink.Pipeline) { dui.GuardPipeline(p, model) }
	fmt.Printf("supervisor trained from %d passive RTT samples\n\n", len(calib.SRTTs))

	// Criterion (ii): no impact on the driver's legitimate job.
	genuine := dui.RunFailover(dui.FailoverConfig{FailAt: 20, Duration: 45, Hook: guard})
	fmt.Printf("real failure with guard: rerouted=%v in %.2fs, vetoes=%d (genuine RTO timing passes)\n",
		genuine.Rerouted, genuine.DetectionLatency, genuine.VetoedReroutes)

	// Criterion (i): prevent adversarial inputs.
	hijack := dui.RunHijack(dui.HijackConfig{Seed: 1, Hook: guard})
	fmt.Printf("hijack with guard:       rerouted=%v, vetoes=%d, hijacked packets=%d\n",
		hijack.Rerouted, hijack.VetoedReroutes, hijack.HijackedPackets)
	fmt.Println("the attacker held a sample majority, but her packet pacing does not look like RTOs")

	// PCC: detect, then constrain the decision range.
	attacked := dui.RunOscillation(dui.OscConfig{Duration: 90, Seed: 2, Attack: true})
	fmt.Printf("\nPCC equalizer detector: %s\n", (&dui.PCCGuard{}).Check(attacked.Records))
	for _, cap := range []float64{0.05, 0.02, 0.01} {
		_, amp := dui.ForcedOscillation(0.01, cap, 20)
		fmt.Printf("allowed operating range ε<=%.2f bounds the forced oscillation to ±%.0f%%\n", cap, 100*amp/2)
	}
}
