// Quickstart: enumerate the paper's threat model and run every
// implemented case-study attack at reduced scale.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"dui/internal/core"
)

func main() {
	fmt.Println("Threat model (§2): attack catalog")
	fmt.Println("name                   system     sect  privilege  target       impacts")
	for _, cs := range core.Catalog() {
		fmt.Println(cs)
	}

	fmt.Println("\nRunning every attack (reduced scale)...")
	for _, cs := range core.Catalog() {
		s := cs.Run(1)
		fmt.Printf("\n[%s] %s\n", cs.Name, s.Note)
		for _, name := range s.Names() {
			fmt.Printf("  %-28s %10.3f\n", name, s.Metric(name))
		}
	}
}
