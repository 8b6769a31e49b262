// Pytheas poisoning walkthrough (§4.1): group-granularity decisions let a
// minority of bots degrade every client in the group; the §5 defense
// (report dedup + distribution filtering) takes the power back.
//
//	go run ./examples/pytheas-poisoning
package main

import (
	"fmt"

	"dui/internal/pytheas"
	"dui/internal/supervisor"
)

func main() {
	cfg := pytheas.SimConfig{Seed: 1}

	clean := pytheas.Run(cfg, nil)
	fmt.Printf("clean group: honest QoE %.2f, %.0f%% on the good CDN\n",
		clean.HonestQoELate, 100*clean.LateShare[0])

	bots := pytheas.Poison{Bots: 150, ReportMultiplier: 5}.Defaults()
	poisoned := pytheas.Run(cfg, bots)
	fmt.Printf("15%% bots (5x report volume): honest QoE %.2f, %.0f%% pushed to the bad CDN\n",
		poisoned.HonestQoELate, 100*poisoned.LateShare[1])

	defended := cfg
	defended.DedupReports = true
	defended.E2.Aggregate = pytheas.MADFiltered(3)
	safe := pytheas.Run(defended, bots)
	fmt.Printf("with the §5 defense (dedup + MAD filter): honest QoE %.2f\n", safe.HonestQoELate)

	// The detector view of a poisoned report window.
	window := poisonedWindow()
	fmt.Printf("\ngroup-distribution check on a poisoned window: %s\n", (&supervisor.PytheasGuard{K: 4}).Check(window))

	// The MitM variant needs no bots at all.
	out := pytheas.RunThrottle(cfg, 0.7, 0.2)
	fmt.Printf("\nMitM throttling of the good CDN (no fake reports): QoE %.2f -> %.2f,\n",
		out.Baseline.HonestQoELate, out.Attacked.HonestQoELate)
	fmt.Printf("peak stampede pushes %.0f%% of the group onto the capacity-limited fallback site\n",
		100*out.PeakStampedeShare)
}

func poisonedWindow() []float64 {
	w := make([]float64, 200)
	for i := range w {
		w[i] = 4.5
		if i%7 == 0 {
			w[i] = 0.2
		}
	}
	return w
}
