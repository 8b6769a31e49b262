// Package prof gives the experiment drivers shared -cpuprofile,
// -memprofile, and -memstats flags, so future performance work starts
// from a profile instead of a guess:
//
//	go run ./cmd/duireport blink-fig2 -cpuprofile fig2.cpu.pprof -memprofile fig2.mem.pprof
//	go tool pprof fig2.cpu.pprof
//
// Importing the package registers the flags; call Start after flag.Parse
// and defer the returned stop function from main (so take care not to
// os.Exit past it).
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

var (
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

// Start begins CPU profiling if -cpuprofile was given and memory
// sampling if -memstats was given, and returns the stop function that
// finalizes the profiles and prints the peak-memory summary to stderr.
// flag.Parse must have run.
func Start() (stop func()) {
	mem := startMem()
	var cpu *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpu = f
	}
	return func() {
		if mem != nil {
			fmt.Fprintln(os.Stderr, "memstats:", mem.Stop())
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prof:", err)
	os.Exit(1)
}
