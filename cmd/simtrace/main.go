// Command simtrace diffs two event traces recorded by the internal/audit
// layer (e.g. `duireport blink-fig2 -trace a.jsonl`) and reports the
// FIRST diverging event, with surrounding context from both traces —
// turning a whole-file "bytes differ" bit-identity check into a localized
// answer: which run, which virtual time, which cell or link, which flow.
//
// Usage:
//
//	simtrace [-context N] [-quiet] A.jsonl B.jsonl
//
// Exit status 0 when the traces are identical, 1 on divergence, 2 on
// usage or read errors. With -quiet nothing is printed on stdout and the
// exit status alone carries the verdict — for use in scripts and CI steps
// that only branch on it.
package main

import (
	"flag"
	"fmt"
	"os"

	"dui/internal/audit"
	"dui/internal/cli"
)

func main() {
	ctxN := flag.Int("context", 3, "events of context to print around the divergence")
	quiet := flag.Bool("quiet", false, "print nothing; report the verdict via the exit status only")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simtrace [-context N] [-quiet] A.jsonl B.jsonl\n")
		flag.PrintDefaults()
	}
	cli.Parse("simtrace")
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	a := mustRead(flag.Arg(0))
	b := mustRead(flag.Arg(1))

	idx, diverged := audit.Diff(a, b)
	if !diverged {
		if !*quiet {
			fmt.Printf("identical: %d events\n", len(a))
		}
		return
	}
	if *quiet {
		os.Exit(1)
	}
	fmt.Printf("traces diverge at event #%d (%s: %d events, %s: %d events)\n\n",
		idx, flag.Arg(0), len(a), flag.Arg(1), len(b))
	printSide(flag.Arg(0), a, idx, *ctxN)
	fmt.Println()
	printSide(flag.Arg(1), b, idx, *ctxN)
	os.Exit(1)
}

func mustRead(path string) []audit.Event {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simtrace: %v\n", err)
		os.Exit(2)
	}
	defer f.Close()
	evs, err := audit.ReadJSONL(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simtrace: %s: %v\n", path, err)
		os.Exit(2)
	}
	return evs
}

// printSide shows the events around idx in one trace, marking the
// diverging one.
func printSide(name string, evs []audit.Event, idx, ctxN int) {
	fmt.Printf("%s:\n", name)
	lo := idx - ctxN
	if lo < 0 {
		lo = 0
	}
	hi := idx + ctxN + 1
	if hi > len(evs) {
		hi = len(evs)
	}
	for i := lo; i < hi; i++ {
		marker := "  "
		if i == idx {
			marker = "> "
		}
		fmt.Printf("  %s%s\n", marker, evs[i])
	}
	if idx >= len(evs) {
		fmt.Printf("  > (no event #%d: trace ended)\n", idx)
	}
}
