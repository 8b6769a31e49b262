package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans are kept in memory and
// written out as JSON lines when the traced run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Root   int    `json:"root"`   // the root span (request) this span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records spans. It is safe for concurrent use; within one parent,
// children are sequential, so a span's self time is its duration minus the
// sum of its children's.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 = a new root) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := id
	if parent != 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(parent int, name string, fn func()) {
	id := t.begin(parent, name)
	fn()
	t.end(id)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations in seconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// total is the summed duration in seconds of the spans named name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes returns every span's self time in seconds, by span id.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.seconds()
		if s.Parent != 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// selfTotal is the summed self time in seconds of the spans named name.
func (t *tracer) selfTotal(name string) float64 {
	spans := t.snapshot()
	self := selfTimes(spans)
	sum := 0.0
	for _, s := range spans {
		if s.Name == name {
			sum += self[s.ID]
		}
	}
	return sum
}

// unattributed returns, over all root spans, the largest share of a root's
// wall time that no layer span below it covers: the root's self time over
// its duration. Layer self times account for the traced wall time to
// within this share.
func unattributed(spans []span) float64 {
	self := selfTimes(spans)
	worst := 0.0
	for _, s := range spans {
		if s.Parent == 0 && s.seconds() > 0 {
			worst = max(worst, self[s.ID]/s.seconds())
		}
	}
	return worst
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// cpuPackages are the packages whose flat CPU share the traced run
// reports, by metric name: each is cpu.<name>.share. Each takes at least
// 1% of the CPU time of some workload's traced run.
var cpuPackages = map[string]string{
	"dui/internal/netsim":     "netsim",
	"dui/internal/audit":      "audit",
	"dui/internal/trace":      "trace",
	"dui/internal/packet":     "packet",
	"dui/internal/tcpflow":    "tcpflow",
	"dui/internal/blink":      "blink",
	"dui/internal/pcc":        "pcc",
	"dui/internal/bnn":        "bnn",
	"dui/internal/sketch":     "sketch",
	"dui/internal/robustness": "robustness",
	"slices":                  "slices",
	"math/rand/v2":            "math_rand_v2",
	"runtime":                 "runtime",
}

// profile is a running CPU profile of the traced run.
type profile struct {
	f *os.File
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return &profile{f: f}, nil
}

// stop ends the profile and returns each cpuPackages entry's flat share of
// the sampled CPU time, aggregated by package from `go tool pprof -top`.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-symbolize=none", p.f.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", filepath.Base(p.f.Name()), err)
	}
	return parseTop(out)
}

// parseTop sums the flat% column of `go tool pprof -top` output by package.
func parseTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, name := range cpuPackages {
		shares[name] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	table := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !table {
			table = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: bad flat%% %q", f[1])
		}
		if name, ok := cpuPackages[packageOf(strings.Join(f[5:], " "))]; ok {
			shares[name] += pct / 100
		}
	}
	if !table {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	return shares, nil
}

// packageOf returns the import path of the package a pprof function name
// belongs to. Assembly routines without a package, and the runtime's
// internal packages, count as runtime.
func packageOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may hold slashes
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return "runtime"
	}
	pkg := fn[:slash+dot]
	if strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return pkg
}
