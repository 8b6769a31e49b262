// Package cli centralizes the flag wiring every cmd/ binary used to
// copy-paste: the -seed / -parallel experiment flags, the -audit /
// -trace observability flags (whose defaults honor the DUI_AUDIT
// environment variable via internal/audit), and the -version flag stamped
// from internal/buildinfo. Behavior is identical to the previous per-main
// definitions; only the definition site moved.
//
// Usage: define flags with the helpers (or the *Var forms when the target
// is a config struct field), then call Parse(tool) instead of flag.Parse.
// Parse registers -version itself, so every binary reports its build
// identity uniformly.
package cli

import (
	"flag"
	"fmt"
	"os"

	"dui/internal/audit"
	"dui/internal/buildinfo"
)

// Seed defines the conventional -seed flag (default 1). An empty desc
// uses the standard wording.
func Seed(desc string) *uint64 {
	var s uint64
	SeedVar(&s, desc)
	return &s
}

// SeedVar is Seed writing through to p (for config-struct targets).
func SeedVar(p *uint64, desc string) {
	if desc == "" {
		desc = "experiment seed"
	}
	flag.Uint64Var(p, "seed", 1, desc)
}

// Parallel defines the conventional -parallel flag (default 0 = all
// cores). An empty desc uses the standard wording, which states the
// repo-wide contract: results are identical at any setting.
func Parallel(desc string) *int {
	var n int
	ParallelVar(&n, desc)
	return &n
}

// ParallelVar is Parallel writing through to p.
func ParallelVar(p *int, desc string) {
	if desc == "" {
		desc = "trial workers (0 = all cores; results identical at any setting)"
	}
	flag.IntVar(p, "parallel", 0, desc)
}

// Audit defines the conventional -audit flag, defaulting to the DUI_AUDIT
// environment variable (audit.EnabledFromEnv).
func Audit(desc string) *bool {
	if desc == "" {
		desc = "run the invariant-audit layer (defaults to DUI_AUDIT)"
	}
	return flag.Bool("audit", audit.EnabledFromEnv(), desc)
}

// Trace defines the conventional -trace flag naming a JSONL event-trace
// output file (diff two runs with duireport simtrace).
func Trace(desc string) *string {
	if desc == "" {
		desc = "write the JSONL event trace to this file; diff two runs with duireport simtrace"
	}
	return flag.String("trace", "", desc)
}

// Parse registers the uniform -version flag, parses the command line, and
// handles -version (print the buildinfo identity, exit 0). Call it where
// flag.Parse used to be, after all other flag definitions.
func Parse(tool string) {
	version := flag.Bool("version", false, "print version/build information and exit")
	flag.Parse()
	if *version {
		fmt.Fprintf(os.Stdout, "%s %s\n", tool, buildinfo.String())
		os.Exit(0)
	}
}
