package main

import (
	"flag"
	"fmt"
	"os"

	"dui/internal/audit"
	"dui/internal/cli"
)

// simtrace diffs two event traces recorded by the internal/audit layer
// (e.g. `duireport blink-fig2 -trace a.jsonl`) and reports the FIRST
// diverging event, with surrounding context from both traces — turning a
// whole-file "bytes differ" bit-identity check into a localized answer:
// which run, which virtual time, which cell or link, which flow.
//
//	duireport simtrace [-context N] [-quiet] A.jsonl B.jsonl
//
// Exit status 0 when the traces are identical, 1 on divergence, 2 on
// usage or read errors. With -quiet nothing is printed on stdout and the
// exit status alone carries the verdict — for use in scripts and CI steps
// that only branch on it.
func simtrace() {
	ctxN := flag.Int("context", 3, "events of context to print around the divergence")
	quiet := flag.Bool("quiet", false, "print nothing; report the verdict via the exit status only")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: duireport simtrace [-context N] [-quiet] A.jsonl B.jsonl\n")
		flag.PrintDefaults()
	}
	cli.Parse("duireport simtrace")
	if flag.NArg() != 2 {
		flag.Usage()
		exit(2)
	}
	defer startProfiling()()
	a := readTrace(flag.Arg(0))
	b := readTrace(flag.Arg(1))

	idx, diverged := audit.Diff(a, b)
	switch {
	case *quiet: // the exit status alone carries the verdict
	case !diverged:
		fmt.Printf("identical: %d events\n", len(a))
	default:
		fmt.Printf("traces diverge at event #%d (%s: %d events, %s: %d events)\n\n",
			idx, flag.Arg(0), len(a), flag.Arg(1), len(b))
		printSide(flag.Arg(0), a, idx, *ctxN)
		fmt.Println()
		printSide(flag.Arg(1), b, idx, *ctxN)
	}
	if diverged {
		exit(1)
	}
}

// readTrace reads one JSONL event trace, exiting 2 if it cannot.
func readTrace(path string) []audit.Event {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simtrace: %v\n", err)
		exit(2)
	}
	defer f.Close()
	evs, err := audit.ReadJSONL(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simtrace: %s: %v\n", path, err)
		exit(2)
	}
	return evs
}

// printSide shows the events around idx in one trace, marking the
// diverging one.
func printSide(name string, evs []audit.Event, idx, ctxN int) {
	fmt.Printf("%s:\n", name)
	lo := max(idx-ctxN, 0)
	hi := min(idx+ctxN+1, len(evs))
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
