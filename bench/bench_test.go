package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// deterministicCounts are the per-layer metrics that count work rather
// than time it, so two traced runs of one input must agree on them.
var deterministicCounts = []string{
	"supervisor.checks", "netsim.events", "fuzz.findings", "fuzz.shrink_runs",
	"pop.packets", "campaign.hit_share",
}

// TestWorkloads runs every workload at tinySize: two untraced requests
// must give equal digests, every run must pass its checks and emit exactly
// the declared metrics, two traced runs must agree on every count, and the
// layer spans must cover all but 5% of each traced request.
func TestWorkloads(t *testing.T) {
	spec := testSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 3, size: tinySize}
			state := t.TempDir()
			_, d1, err := oneRequest(w, o, state)
			if err != nil {
				t.Fatal(err)
			}
			_, d2, err := oneRequest(w, o, state)
			if err != nil {
				t.Fatal(err)
			}
			if d1 == "" || d1 != d2 {
				t.Errorf("digests of two runs differ: %q vs %q", d1, d2)
			}

			res, err := runWorkload(w, o, runConfig{stateDir: state})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, declared(spec.EndToEnd))
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %g, want > 0", name, m.Value)
				}
			}

			var traced [2]result
			for i := range traced {
				out := t.TempDir()
				traced[i], err = runWorkload(w, o, runConfig{traced: true, stateDir: state, outDir: out})
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, traced[i], spec.PerLayer)
				if u := unattributed(readSpans(t, filepath.Join(out, "spans-"+w.name+".jsonl"))); u > 0.05 {
					t.Errorf("layer spans leave %.1f%% of a traced request unattributed", 100*u)
				}
			}
			for _, name := range deterministicCounts {
				if a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value; a != b {
					t.Errorf("%s differs between two traced runs: %g vs %g", name, a, b)
				}
			}
		})
	}
}

// checkResult asserts a run passed its checks and emitted exactly decls.
func checkResult(t *testing.T, res result, decls []metricDecl) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("run not correct: %d of %d ops failed", res.Failed, res.Attempted)
	}
	want := map[string]string{}
	for _, d := range decls {
		want[d.Name] = d.Unit
	}
	got := map[string]string{}
	for name, m := range res.Metrics {
		got[name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("emitted metrics %v, declared %v", got, want)
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	return spans
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func declared(bs []boundDecl) []metricDecl {
	var out []metricDecl
	for _, b := range bs {
		out = append(out, b.metricDecl)
	}
	return out
}

// TestDeclarations keeps BENCHMARK.json and the program in step.
func TestDeclarations(t *testing.T) {
	spec := testSpec(t)
	if got := declared(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%v\n%v", spec.PerLayer, perLayer())
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	g, err := loadGolden("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			if _, ok := g.lookup(w.name, seed); !ok {
				t.Errorf("golden file has no digest for %s seed %d", w.name, seed)
			}
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{3, 0.5, true}, {9, 0.9, false}, {99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true}, {0, 0.5, false},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", 100*c.p, c.n, err, c.ok)
		}
	}
	if got, _ := percentile(seq(5), 0.5); got != 3 {
		t.Errorf("median of 1..5 = %g, want 3", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dui/internal/netsim.(*Engine).run":                                 "dui/internal/netsim",
		"dui/internal/runner.Map[go.shape.[]dui/internal/campaign.X].func1": "dui/internal/runner",
		"runtime.mallocgc": "runtime",
		"internal/runtime/atomic.(*Uint32).Add (inline)": "runtime",
		"aeshashbody":                             "runtime",
		"math/rand/v2.(*PCG).Uint64":              "math/rand/v2",
		"slices.pdqsortOrdered[go.shape.float64]": "slices",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCompare checks -compare's verdicts on synthetic result files.
func TestCompare(t *testing.T) {
	spec := testSpec(t)
	file := func(scale float64) *resultFile {
		f := &resultFile{}
		for i := 0; i < 5; i++ {
			vals := map[string]float64{}
			for _, d := range endToEnd {
				vals[d.Name] = (100 + float64(i)) * scale
			}
			f.Runs = append(f.Runs, runEntry{Workload: "pop", Seed: uint64(i + 1), Result: newResult(tally{attempted: 1}, endToEnd, vals)})
		}
		return f
	}
	var out strings.Builder
	if !compare(spec, file(1), file(1), &out) {
		t.Errorf("identical files should pass:\n%s", out.String())
	}
	// Every metric 50% larger: worse beyond any bound for the lower-is-
	// better metrics, so the comparison must fail.
	out.Reset()
	if compare(spec, file(1), file(1.5), &out) || !strings.Contains(out.String(), "FAIL") {
		t.Errorf("a 50%% regression should fail:\n%s", out.String())
	}
}
