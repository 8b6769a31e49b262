package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dui/internal/campaign"
	"dui/internal/cli"
	"dui/internal/fuzz"
)

// simfuzz runs the property-based fuzzing campaign over random
// simulation scenarios (internal/fuzz): each seed becomes a randomized
// topology with heterogeneous links, heavy-tailed workloads, scheduled
// failures, MitM taps, and optional Blink deployments, executed twice
// under the full audit-oracle stack. Failures are shrunk to minimal
// reproducers and optionally written to a corpus directory.
//
//	duireport simfuzz [-seeds N] [-seed S] [-parallel W] [-budget D] [-shrink]
//	                  [-corpus DIR] [-max-nodes N] [-faults] [-checkpoint FILE] [-quiet]
//	duireport simfuzz -json | -server URL [campaign flags]
//	duireport simfuzz -replay DIR
//
// Every mode runs one internal/campaign fuzz job and differs only in how
// it renders the result: the text summary (default), the canonical result
// JSON (-json), or the result a running duid server serves (-server).
// The verdict is a pure function of (-seed, -seeds, -max-nodes, -faults,
// -shrink): any -parallel value finds the same failures. -faults opens
// the benign-fault plane (gray failure, flapping, degradation,
// crash/restart) to the generator. -replay re-checks every corpus entry
// in DIR against current code instead of fuzzing.
//
// -checkpoint FILE is the job's campaign journal: every completed trial's
// verdict is appended as it finishes, and a campaign killed mid-run
// resumes from it with an identical final verdict. The journal is bound
// to the whole campaign spec plus the build revision, so a resume must
// repeat those flags. -budget stops starting trials once the wall-time
// budget is spent; running trials finish (and are journaled), the
// summary reports the rest as skipped, and the failures found are still
// shrunk — the one wall-clock-dependent result.
//
// -json and -server print byte-identical results — the determinism gate
// CI's duid-smoke job enforces with cmp. Both reject the process-local
// flags (-budget, -checkpoint, -corpus, -replay): their result must be a
// pure function of the spec, and the server journals durability itself.
//
// Exit status 0 when all scenarios (or corpus entries) pass, 1 when the
// oracles caught failures, 2 on usage, dispatch or internal errors.
func simfuzz() {
	var (
		seeds      = flag.Int("seeds", 200, "number of random scenarios to run")
		seed       = cli.Seed("root seed (expands into per-scenario seeds)")
		parallel   = cli.Parallel("worker pool size (0 = GOMAXPROCS)")
		budget     = flag.Duration("budget", 0, "wall-time budget; stops handing out new trials when exceeded (0 = none)")
		shrink     = flag.Bool("shrink", false, "shrink each failure to a minimal reproducer")
		corpus     = flag.String("corpus", "", "directory to write failure reproducers to")
		maxNodes   = flag.Int("max-nodes", 0, "topology size cap for generated scenarios (0 = default)")
		faultModes = flag.Bool("faults", false, "draw benign-fault specs (gray failure, flapping, degradation, crash/restart)")
		checkpoint = flag.String("checkpoint", "", "record per-trial verdicts in this file; resume a killed campaign from it")
		replay     = flag.String("replay", "", "replay corpus entries from this directory instead of fuzzing")
		quiet      = flag.Bool("quiet", false, "suppress per-failure and progress output; only the final summary")
		jsonOut    = flag.Bool("json", false, "emit the canonical campaign result JSON (internal/campaign fuzz kind) instead of the text summary")
		server     = flag.String("server", "", "submit the campaign to the duid server at this URL and print the result it serves")
	)
	defer start("duireport simfuzz")()

	if *jsonOut || *server != "" {
		if *budget != 0 || *checkpoint != "" || *corpus != "" || *replay != "" {
			fmt.Fprintln(os.Stderr, "simfuzz: -json/-server campaigns reject the process-local flags -budget, -checkpoint, -corpus, -replay")
			exit(2)
		}
	}
	if *replay != "" {
		exit(replayCorpus(*replay, *quiet))
	}

	resumed := 0
	raw := runCampaign("simfuzz", *server, campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &campaign.FuzzSpec{
		Seeds: *seeds, RootSeed: *seed, MaxNodes: *maxNodes,
		Faults: *faultModes, Shrink: *shrink,
	}}, campaign.Env{
		Workers: *parallel, Journal: *checkpoint, Budget: *budget,
		OnProgress: func(p campaign.Progress) { resumed = p.Resumed },
	}, !*quiet)
	var res campaign.FuzzResult
	if err := json.Unmarshal(raw, &res); err != nil {
		fmt.Fprintf(os.Stderr, "simfuzz: bad result: %v\n", err)
		exit(2)
	}
	if *jsonOut || *server != "" {
		os.Stdout.Write(raw)
	} else if err := fuzzReport(os.Stdout, &res, resumed, *corpus, *quiet); err != nil {
		fmt.Fprintf(os.Stderr, "simfuzz: %v\n", err)
		exit(2)
	}
	if len(res.Failures) > 0 {
		exit(1)
	}
}

// fuzzReport renders the text summary of a campaign result: one FAIL line
// (and one shrink line) per failure unless quiet, the reproducers written
// to corpusDir when it is set, and the closing count line.
func fuzzReport(w io.Writer, res *campaign.FuzzResult, resumed int, corpusDir string, quiet bool) error {
	if !quiet {
		for _, f := range res.Failures {
			fmt.Fprintf(w, "FAIL trial=%d seed=%#x rule=%s (%s): %s\n",
				f.Trial, f.Seed, f.Rule, f.Scenario.Size(), f.Violations[0])
			if f.Shrunk != nil {
				fmt.Fprintf(w, "  shrunk in %d runs to: %s\n", f.ShrinkRuns, f.Shrunk.Size())
			}
		}
	}
	if corpusDir != "" {
		for _, f := range res.Failures {
			scn := f.Scenario
			if f.Shrunk != nil {
				scn = f.Shrunk
			}
			path, err := fuzz.SaveEntry(corpusDir, &fuzz.Entry{
				Name:     fmt.Sprintf("seed-%016x", f.Seed),
				Rule:     f.Rule,
				Note:     fmt.Sprintf("found by simfuzz -seed %d (trial %d): %s", res.RootSeed, f.Trial, f.Violations[0]),
				Scenario: *scn,
			})
			if err != nil {
				return err
			}
			if !quiet {
				fmt.Fprintf(w, "wrote %s\n", path)
			}
		}
	}
	fmt.Fprintf(w, "simfuzz: %d/%d scenarios run, %d failures", res.Seeds-res.Skipped, res.Seeds, len(res.Failures))
	if resumed > 0 {
		fmt.Fprintf(w, " (%d resumed from checkpoint)", resumed)
	}
	if res.Skipped > 0 {
		fmt.Fprintf(w, " (%d skipped: budget exhausted)", res.Skipped)
	}
	fmt.Fprintln(w)
	return nil
}

// replayCorpus re-validates every persisted reproducer, returning the
// process exit code.
func replayCorpus(dir string, quiet bool) int {
	entries, err := fuzz.LoadCorpus(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfuzz: %v\n", err)
		return 2
	}
	failed := 0
	for _, e := range entries {
		if err := fuzz.Replay(e); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "simfuzz: %v\n", err)
		} else if !quiet {
			fmt.Printf("ok %s (rule %s)\n", e.Name, e.Rule)
		}
	}
	fmt.Printf("simfuzz: %d corpus entries, %d failed\n", len(entries), failed)
	if failed > 0 {
		return 1
	}
	return 0
}
