// Command bench is the lab's end-to-end benchmark. It drives four
// workloads through the layers' public calls and times those calls from
// outside the program:
//
//   - matrix: campaign.Execute of the full robustness matrix;
//   - fuzz: campaign.Execute of a fault-mode fuzz campaign with shrinking;
//   - pop: popscale.Run over a million active flows;
//   - service: an in-process campaign server under a closed loop of
//     clients mixing cold jobs and cache hits.
//
// Run it from the root of the repository through bench/run.sh, which
// builds it from source first:
//
//	bash bench/run.sh --workload matrix --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                           # every workload
//	bash bench/run.sh --trace 1                 # per-layer metrics, span files
//	bash bench/run.sh -runs 5 -out a.json       # a result file of 5 runs each
//	bash bench/run.sh -compare a.json b.json    # medians, quartiles, PASS/FAIL
//
// A single-workload run prints one JSON result line last on stdout and
// exits non-zero when an output fails its checks: runs repeat
// byte-identically, cache hits return their cold job's bytes, and seeds 1
// and 2 match bench/testdata/golden.json. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// defaultSeconds is the timed phase's default length: BENCHMARK.json's
// run_seconds.
const defaultSeconds = 20

// setupProbes is how many child processes set-up time is the median of.
const setupProbes = 20

// Paths, relative to the root of the checkout the benchmark runs from.
const (
	goldenPath = "bench/testdata/golden.json"
	specPath   = "BENCHMARK.json"
	stateDir   = ".bench_build/state" // the runs' fresh state directories
	outDir     = "bench/out"          // span files and CPU profiles
)

func main() {
	name := flag.String("workload", "", "workload to run: matrix, fuzz, pop or service (empty: each in a child process)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced invocation, which reports the per-layer metrics")
	runs := flag.Int("runs", 1, "with every workload: runs per workload, at seeds seed, seed+1, ...")
	out := flag.String("out", "", "with every workload: write the runs to this result file")
	cmp := flag.Bool("compare", false, "compare two result files given as arguments")
	update := flag.Bool("update-golden", false, "recompute the golden digests of seeds 1 and 2 and rewrite the golden file")
	flag.Parse()

	err := func() error {
		switch {
		case os.Getenv(probeEnv) != "":
			w, err := findWorkload(*name)
			if err != nil {
				return err
			}
			return runProbe(w, options{seed: *seed, size: fullSize}, stateDir)
		case *cmp:
			return compareMain(flag.Args())
		case *update:
			return updateGolden()
		case *traced != 0 && *traced != 1:
			return fmt.Errorf("-trace is 0 or 1, not %d", *traced)
		case *name == "":
			return allMain(*seed, *seconds, *traced == 1, *runs, *out)
		}
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		g, err := loadGolden(goldenPath)
		if err != nil {
			return err
		}
		rc := runConfig{seconds: *seconds, probes: setupProbes, stateDir: stateDir, outDir: outDir, golden: g}
		if *traced == 1 {
			rc.traced, rc.probes = true, 0 // a traced run reports no set-up time
		}
		res, err := runWorkload(w, options{seed: *seed, size: fullSize}, rc)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// allMain runs every workload runs times, each run in a child process of
// its own so its resident set is the workload's, prints every metric, and
// writes the runs to out when it is set.
func allMain(seed uint64, seconds int, traced bool, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Host: thisHost(), Seconds: seconds, Traced: traced}
	trace := "0"
	if traced {
		trace = "1"
	}
	var failed []string
	for r := 0; r < runs; r++ {
		s := seed + uint64(r)
		for _, w := range workloads {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", trace)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			res, err := lastResult(stdout)
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %v", w.name, s, errors.Join(runErr, err)))
				continue
			}
			if !res.Correct || runErr != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %d of %d ops failed", w.name, s, res.Failed, res.Attempted))
			}
			file.Runs = append(file.Runs, runEntry{Workload: w.name, Seed: s, Result: res})
			printResult(w.name, s, res)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// lastResult parses the result line a workload run prints last.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if len(last) == 0 {
		return res, errors.New("no result line")
	}
	return res, json.Unmarshal(last, &res)
}

// printResult prints one run's metrics, one per line.
func printResult(w string, seed uint64, res result) {
	fmt.Printf("%s seed %d: correct %v, %d of %d ops failed\n", w, seed, res.Correct, res.Failed, res.Attempted)
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer()...) {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("  %-30s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// compareMain runs -compare A.json B.json.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two result files")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := loadResultFile(args[1])
	if err != nil {
		return err
	}
	if !compare(spec, a, b, os.Stdout) {
		return errors.New("the two result files disagree beyond the bounds")
	}
	return nil
}
