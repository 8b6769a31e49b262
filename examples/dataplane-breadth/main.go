// Dataplane breadth walkthrough (§3.2): three more data-plane programs
// turned against their operators — DAPPER's diagnosis mis-blamed, a
// SilkRoad-style connection table exhausted, and an in-network classifier
// evaded with a handful of header-bit flips.
//
//	go run ./examples/dataplane-breadth
package main

import (
	"fmt"

	"dui/internal/bnn"
	"dui/internal/conntrack"
	"dui/internal/dapper"
)

func main() {
	fmt.Println("== DAPPER: who gets blamed? ==")
	honest := dapper.Run(dapper.TrueSender, dapper.None, 20)
	fmt.Printf("a healthy application-limited flow: diagnosed %s\n", honest.Diagnosis)
	blamed := dapper.Run(dapper.TrueSender, dapper.InjectRetransmissions, 20)
	fmt.Printf("same flow + %d injected duplicate segments: diagnosed %s\n",
		blamed.Budget, blamed.Diagnosis)
	fmt.Println("the operator now 'fixes' a congestion problem that does not exist")

	fmt.Println("\n== Per-connection state exhaustion ==")
	clean := conntrack.RunExhaustion(conntrack.ExhaustionConfig{Seed: 1})
	flood := conntrack.RunExhaustion(conntrack.ExhaustionConfig{Seed: 1, AttackSYNRate: 2000})
	fmt.Printf("no attack:   table %d/%d, %.0f%% of connections broken by a pool update\n",
		clean.TableOccupancy, clean.Config.TableCap, 100*clean.BrokenFraction)
	fmt.Printf("2000 SYN/s:  table %d/%d, %.0f%% of connections broken by a pool update\n",
		flood.TableOccupancy, flood.Config.TableCap, 100*flood.BrokenFraction)

	fmt.Println("\n== In-network BNN adversarial examples ==")
	acc, rows := bnn.Experiment{Seed: 1}.Run([]int{2, 4})
	fmt.Printf("deployed classifier accuracy: %.0f%%\n", 100*acc)
	for _, r := range rows {
		kind := "random flips "
		if r.Crafted {
			kind = "crafted flips"
		}
		fmt.Printf("budget %d, %s: %.0f%% evasion (avg %.1f bits used)\n",
			r.Budget, kind, 100*r.SuccessRate, r.MeanFlips)
	}
}
