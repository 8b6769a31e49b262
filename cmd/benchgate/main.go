// Command benchgate turns `go test -bench` output read on stdin into the
// repository's benchmark-trajectory JSON and checks it against the
// checked-in floors in BENCH_FLOOR.json. Input lines are echoed to stdout,
// so it sits transparently at the end of a pipe:
//
//	go test -run '^$' -bench=. -benchmem -count=1 . | benchgate BENCH_5.json
//
// The JSON file holds one entry per benchmark with ns/op, B/op, allocs/op
// and any custom ReportMetric units. The floors are absolute metric floors
// or ceilings ("the E1 engine workload must sustain N events/sec", "the
// hot path must stay at 0 allocs/op") and ratio floors between two
// benchmarks ("lanes must beat closure delivery by at least R× on the E1
// workload").
//
// Usage:
//
//	benchgate [-floor BENCH_FLOOR.json] [-strict] [-strict-allocs] BENCH.json
//
// By default violations are printed as warnings and the exit status is 0
// — shared CI runners are too noisy for wall-clock numbers to be a hard
// gate, so the job surfaces regressions without blocking merges. With
// -strict any violation exits 1. With -strict-allocs only the allocs/op
// ceilings become hard failures: allocation counts are scheduling-
// independent (unlike wall-clock throughput), so "an allocation
// reappeared on the steady-state path" gates reliably even on noisy
// shared runners while the perf floors stay warn-only. Exit status 2 on
// usage, read or write errors, on input without a benchmark result line,
// and on a floor entry whose benchmark or metric is missing from the
// measurements (a silently-skipped check would read as a pass).
//
// The floors are deliberately conservative relative to the measured
// numbers: they are meant to catch "the optimization fell off" (a
// 2×-or-worse cliff, an allocation reappearing on the steady-state path),
// not a 10% wobble.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dui/internal/cli"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// File is the benchmark-trajectory document (BENCH_*.json).
type File struct {
	GeneratedBy string      `json:"generated_by"`
	Goos        string      `json:"goos,omitempty"`
	Goarch      string      `json:"goarch,omitempty"`
	CPU         string      `json:"cpu,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

// Floor is one absolute bound on a single benchmark metric. Min and Max
// are pointers so a zero bound (allocs/op <= 0) is expressible.
type Floor struct {
	Bench  string   `json:"bench"`
	Metric string   `json:"metric"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Why    string   `json:"why,omitempty"`
}

// Ratio is a floor on Num's metric divided by Den's metric, held at a
// CI-noise-tolerant fraction of the measured value.
type Ratio struct {
	Num    string  `json:"num"`
	Den    string  `json:"den"`
	Metric string  `json:"metric"`
	Min    float64 `json:"min"`
	Why    string  `json:"why,omitempty"`
}

// FloorFile is the checked-in BENCH_FLOOR.json document.
type FloorFile struct {
	Comment string  `json:"comment,omitempty"`
	Floors  []Floor `json:"floors"`
	Ratios  []Ratio `json:"ratios"`
}

func main() {
	floorPath := flag.String("floor", "BENCH_FLOOR.json", "floor file to compare against")
	strict := flag.Bool("strict", false, "exit 1 on any violation instead of warning")
	strictAllocs := flag.Bool("strict-allocs", false, "exit 1 on allocs/op ceiling violations (deterministic metric); perf floors stay warnings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go test -bench ... | benchgate [-floor BENCH_FLOOR.json] [-strict] [-strict-allocs] BENCH.json\n")
		flag.PrintDefaults()
	}
	cli.Parse("benchgate")
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	out := flag.Arg(0)

	var floors FloorFile
	mustLoad(*floorPath, &floors)
	bench := readBench()
	if len(bench.Benchmarks) == 0 {
		fatalf("no benchmark result lines on stdin; %s not written", out)
	}
	enc, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}

	byName := make(map[string]Benchmark, len(bench.Benchmarks))
	for _, b := range bench.Benchmarks {
		byName[b.Name] = b
	}
	metric := func(name, unit string) float64 {
		b, ok := byName[name]
		if !ok {
			fatalf("benchmark %q not present in %s (floor entry is stale or the bench run was filtered)", name, out)
		}
		v, ok := b.Metrics[unit]
		if !ok {
			fatalf("benchmark %q has no %q metric in %s", name, unit, out)
		}
		return v
	}

	violations, hard := 0, 0
	warn := func(format string, args ...any) {
		violations++
		fmt.Printf("benchgate: FAIL: "+format+"\n", args...)
	}

	for _, f := range floors.Floors {
		v := metric(f.Bench, f.Metric)
		switch {
		case f.Min != nil && v < *f.Min:
			warn("%s %s = %g, below floor %g%s", f.Bench, f.Metric, v, *f.Min, why(f.Why))
		case f.Max != nil && v > *f.Max:
			warn("%s %s = %g, above ceiling %g%s", f.Bench, f.Metric, v, *f.Max, why(f.Why))
			if *strictAllocs && f.Metric == "allocs/op" {
				hard++
			}
		default:
			fmt.Printf("benchgate: ok: %s %s = %g\n", f.Bench, f.Metric, v)
		}
	}
	for _, r := range floors.Ratios {
		num, den := metric(r.Num, r.Metric), metric(r.Den, r.Metric)
		if den == 0 {
			fatalf("ratio %s / %s: denominator %s is zero", r.Num, r.Den, r.Metric)
		}
		got := num / den
		if got < r.Min {
			warn("%s / %s %s ratio = %.2f, below floor %.2f%s", r.Num, r.Den, r.Metric, got, r.Min, why(r.Why))
		} else {
			fmt.Printf("benchgate: ok: %s / %s %s ratio = %.2f (floor %.2f)\n", r.Num, r.Den, r.Metric, got, r.Min)
		}
	}

	if violations > 0 {
		fmt.Printf("benchgate: %d floor violation(s) — see FAIL lines above\n", violations)
		if *strict {
			os.Exit(1)
		}
		if hard > 0 {
			fmt.Printf("benchgate: %d allocs/op ceiling violation(s) are hard failures under -strict-allocs\n", hard)
			os.Exit(1)
		}
		fmt.Println("benchgate: warn-only mode, exiting 0 (rerun with -strict to gate)")
		return
	}
	fmt.Println("benchgate: all floors hold")
}

// readBench parses `go test -bench` output from stdin, echoing each line
// to stdout.
func readBench() File {
	doc := File{GeneratedBy: "go test -bench=. -benchmem -count=1 | benchgate"}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		if b, ok := parseLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("reading stdin: %v", err)
	}
	return doc
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   1234   456.7 ns/op   89 B/op   2 allocs/op   1.5 custom-unit
//
// i.e. the benchmark name, the iteration count, then (value, unit) pairs.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// why formats an optional rationale suffix.
func why(s string) string {
	if s == "" {
		return ""
	}
	return " (" + s + ")"
}

func mustLoad(path string, v any) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		fatalf("%s: %v", path, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}
