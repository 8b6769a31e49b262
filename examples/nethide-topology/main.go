// NetHide walkthrough (§4.3): what traceroute really learns is whatever
// the answering infrastructure chooses to present. NetHide uses the
// mechanism defensively; a malicious operator uses it to lie arbitrarily.
//
//	go run ./examples/nethide-topology
package main

import (
	"fmt"

	"dui/internal/graph"
	"dui/internal/nethide"
	"dui/internal/stats"
)

func main() {
	g := graph.Abilene()
	pairs := nethide.AllPairs(g)
	phys := nethide.ShortestPaths(g, pairs)
	hot, hotD := phys.MaxDensity()
	fmt.Printf("Abilene: the hottest link is %s-%s with flow density %d — a link-flooding target\n\n",
		g.Name(hot.A), g.Name(hot.B), hotD)

	src, _ := g.NodeByName("SEA")
	dst, _ := g.NodeByName("NYC")
	fmt.Printf("truthful traceroute SEA->NYC: %s\n", render(g, nethide.Traceroute(phys, src, dst)))

	// NetHide: minimal lying, bounded flow density.
	virt, m := nethide.Obfuscate(g, pairs, nethide.Config{DensityCap: 30}, stats.NewRNG(1))
	fmt.Printf("\nNetHide (density cap 30): accuracy %.3f, utility %.3f, max density %d -> %d\n",
		m.Accuracy, m.Utility, m.MaxDensityPhys, m.MaxDensityVirt)
	fmt.Printf("NetHide traceroute SEA->NYC: %s\n", render(g, nethide.Traceroute(virt, src, dst)))

	// Malicious operator: unconstrained lie hiding the bottleneck.
	lie := nethide.MaliciousTopology(g, pairs, hot.A, hot.B)
	view := nethide.Survey(lie, pairs)
	fmt.Printf("\nmalicious operator hides %s-%s entirely: visible in any traceroute = %v\n",
		g.Name(hot.A), g.Name(hot.B), nethide.HiddenLinkVisible(view, hot.A, hot.B))
	d, _ := g.NodeByName("CHI")
	s2, _ := g.NodeByName("DEN")
	fmt.Printf("lying traceroute DEN->CHI:   %s\n", render(g, nethide.Traceroute(lie, s2, d)))
	fmt.Printf("truthful route DEN->CHI:     %s\n", render(g, nethide.Traceroute(phys, s2, d)))
}

func render(g *graph.Graph, hops []graph.NodeID) string {
	s := ""
	for i, h := range hops {
		if i > 0 {
			s += " -> "
		}
		s += g.Name(h)
	}
	return s
}
