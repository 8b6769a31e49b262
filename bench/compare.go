package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"dui/internal/buildinfo"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: its run
// length, workloads and metrics, with the bound of every end-to-end metric.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDecl  `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// boundDecl is an end-to-end metric with the share of the baseline median
// by which it may worsen before a change counts as a regression.
type boundDecl struct {
	metricDecl
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultFile is a set of runs, as `-runs N -out FILE` writes it.
type resultFile struct {
	Host    host       `json:"host"`
	Seconds int        `json:"seconds"`
	Traced  bool       `json:"traced"`
	Runs    []runEntry `json:"runs"`
}

// host identifies where and from what a result file was measured.
type host struct {
	CPU      string `json:"cpu"`
	NProc    int    `json:"nproc"`
	Go       string `json:"go"`
	Revision string `json:"revision"`
}

// runEntry is one workload run in a result file.
type runEntry struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   result `json:"result"`
}

func thisHost() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), Revision: buildinfo.Revision()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func loadResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values returns a metric's value in every run of workload w.
func (f *resultFile) values(w, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == w {
			out = append(out, m.Value)
		}
	}
	return out
}

// incorrect counts the runs of workload w that failed a check.
func (f *resultFile) incorrect(w string) int {
	n := 0
	for _, r := range f.Runs {
		if r.Workload == w && !r.Result.Correct {
			n++
		}
	}
	return n
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compare prints, for every workload and metric in two result files, each
// side's median and quartiles and, for an end-to-end metric, PASS or FAIL:
// FAIL when B's median is worse than A's by more than the metric's bound,
// when either side's spread exceeds the bound (set-up time excepted), or
// when a run failed its checks. It reports whether everything passed.
func compare(spec *benchSpec, a, b *resultFile, w io.Writer) bool {
	fmt.Fprintf(w, "A: %d runs, %s, nproc %d, %s, rev %s\n", len(a.Runs), a.Host.CPU, a.Host.NProc, a.Host.Go, a.Host.Revision)
	fmt.Fprintf(w, "B: %d runs, %s, nproc %d, %s, rev %s\n", len(b.Runs), b.Host.CPU, b.Host.NProc, b.Host.Go, b.Host.Revision)
	decls := make([]boundDecl, 0, len(spec.EndToEnd)+len(spec.PerLayer))
	decls = append(decls, spec.EndToEnd...)
	for _, d := range spec.PerLayer {
		decls = append(decls, boundDecl{metricDecl: d})
	}
	ok := true
	for _, wl := range spec.Workloads {
		if bad := a.incorrect(wl.Name) + b.incorrect(wl.Name); bad > 0 {
			fmt.Fprintf(w, "%s: %d runs failed their checks  FAIL\n", wl.Name, bad)
			ok = false
		}
		fmt.Fprintf(w, "\n%-8s %-30s %-6s %28s %7s %28s %7s %8s %6s\n", wl.Name, "metric", "unit",
			"A median [q1, q3]", "spread", "B median [q1, q3]", "spread", "worse", "bound")
		for _, d := range decls {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := 0.0
			if am != 0 {
				worse = (bm - am) / am
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			if d.Bound > 0 {
				pass := worse <= d.Bound
				if d.Name != "setup_s" {
					pass = pass && spread(va) <= d.Bound && spread(vb) <= d.Bound
				}
				verdict = fmt.Sprintf("%5.1f%%  PASS", 100*d.Bound)
				if !pass {
					verdict = fmt.Sprintf("%5.1f%%  FAIL", 100*d.Bound)
					ok = false
				}
			}
			fmt.Fprintf(w, "%-8s %-30s %-6s %28s %6.1f%% %28s %6.1f%% %+7.1f%% %s\n", "", d.Name, d.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", am, a1, a3), 100*spread(va),
				fmt.Sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), 100*spread(vb), 100*worse, verdict)
		}
	}
	return ok
}
