package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dui/internal/campaign"
	"dui/internal/popscale"
)

// workload is one input family of the benchmark.
type workload struct {
	name string
	// open does the run's set-up in dir, a fresh state directory: the spec
	// canonicalization, and for the service the server and its listener.
	// It is what setup_s times.
	open func(o options, dir string) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// measure runs the timed phase for at least d, and at least one
	// request, with tracing off.
	measure(d time.Duration) measurement
	// trace redoes the workload's work with spans around every layer call
	// under a CPU profile, and returns the per-layer metrics it can give.
	trace(tr *tracer, profPath string) (map[string]float64, tally, error)
	close() error
}

// tally counts the ops a run attempted and the ones that failed: returned
// errors and failed correctness checks alike.
type tally struct {
	attempted, failed int
}

// check records one op that failed when err is non-nil.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
}

// measurement is what the timed phase of a workload saw.
type measurement struct {
	tally
	ops    float64       // work units completed
	wall   time.Duration // the timed phase
	lat    []float64     // request latencies, ms
	digest string        // digest of the deterministic output (golden-checked)
}

// options configure the workloads of one run.
type options struct {
	seed uint64
	size size
}

// size holds every workload's input size. fullSize is what the benchmark
// measures; tests run tinySize.
type size struct {
	matrix  campaign.RobustnessSpec
	fuzz    campaign.FuzzSpec
	pop     popscale.Config
	service serviceSize
}

var fullSize = size{
	matrix: campaign.RobustnessSpec{Trials: 1},
	fuzz:   campaign.FuzzSpec{Seeds: 2000, Faults: true, Shrink: true},
	pop: popscale.Config{
		Prefixes: 16384, FlowsPerPrefix: 64, Duration: 10,
		AttackedEvery: 16, AttackFlows: 48, Shards: 32, Parallel: 2,
	},
	service: serviceSize{seeds: 50, minCold: 16, hits: 16, traceCold: 50},
}

var tinySize = size{
	matrix: campaign.RobustnessSpec{Systems: []string{"sppifo", "bnn"}, Profiles: []string{"none", "gray"}, Trials: 1, Quick: true},
	fuzz:   campaign.FuzzSpec{Seeds: 40, Faults: true, Shrink: true},
	pop: popscale.Config{
		Prefixes: 256, FlowsPerPrefix: 16, Duration: 4,
		AttackedEvery: 16, AttackFlows: 48, Shards: 4, Parallel: 2,
	},
	service: serviceSize{seeds: 4, minCold: 2, hits: 4, traceCold: 2},
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workload{
	{name: "matrix", open: openMatrix},
	{name: "fuzz", open: openFuzz},
	{name: "pop", open: openPop},
	{name: "service", open: openService},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a workload run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig says how to run one workload.
type runConfig struct {
	seconds  int
	traced   bool
	probes   int    // set-up probes in child processes; 0 times set-up in-process
	stateDir string // parent of the run's fresh state directory
	outDir   string // span files and CPU profiles
	golden   golden // nil skips the golden check
}

// runWorkload runs w once and returns its result line.
func runWorkload(w workload, o options, rc runConfig) (result, error) {
	if err := os.MkdirAll(rc.stateDir, 0o755); err != nil {
		return result{}, err
	}
	// Half the set-up probes run before the timed phase and half after it,
	// so one slow moment of the host does not set their median.
	var setups []float64
	probe := func(n int) error {
		for i := 0; i < n; i++ {
			s, err := probeSetup(w, o)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		return nil
	}
	if err := probe(rc.probes / 2); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(rc.stateDir, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	inst, err := w.open(o, dir)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if rc.probes == 0 {
		setups = append(setups, time.Since(start).Seconds())
	}

	if rc.traced {
		res, err := traceWorkload(w, inst, rc.outDir)
		return res, errors.Join(err, inst.close())
	}
	t, vals := measureWorkload(w, inst, o, rc)
	if err := errors.Join(inst.close(), probe(rc.probes-rc.probes/2)); err != nil {
		return result{}, err
	}
	vals["setup_s"] = median(setups)
	return newResult(t, endToEnd, vals), nil
}

// measureWorkload runs the timed phase and derives the end-to-end metrics
// other than set-up time.
func measureWorkload(w workload, inst instance, o options, rc runConfig) (tally, map[string]float64) {
	rss := startRSS(100 * time.Millisecond)
	m := inst.measure(time.Duration(rc.seconds) * time.Second)
	resident := rss.stop()
	if want, ok := rc.golden.lookup(w.name, o.seed); ok {
		if m.digest != want {
			m.check(fmt.Errorf("%s seed %d: output digest %s, golden %s", w.name, o.seed, m.digest, want))
		}
	}
	return m.tally, map[string]float64{
		"ops_per_s":      m.ops / m.wall.Seconds(),
		"latency_p50_ms": median(m.lat),
		"rss_mib":        resident / (1 << 20),
	}
}

// rssSampler samples the process's resident set size while the timed
// phase runs. Its median tracks the working set; the peak (VmHWM) does
// not repeat from run to run, because where a short allocation spike
// lands against the collector's cycle decides it.
type rssSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if rss, err := residentBytes(); err == nil {
				s.samples = append(s.samples, rss)
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median resident set in bytes.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	<-s.done
	return median(s.samples)
}

// residentBytes reads this process's resident set size (VmRSS).
func residentBytes() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

// traceWorkload runs the traced invocation and writes its span file.
func traceWorkload(w workload, inst instance, outDir string) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	tr := newTracer()
	vals, t, err := inst.trace(tr, filepath.Join(outDir, "cpu-"+w.name+".pprof"))
	if err != nil {
		return result{}, fmt.Errorf("%s: trace: %w", w.name, err)
	}
	if err := tr.write(filepath.Join(outDir, "spans-"+w.name+".jsonl")); err != nil {
		return result{}, err
	}
	if u := unattributed(tr.snapshot()); u > 0.05 {
		fmt.Fprintf(os.Stderr, "bench: %s: layer spans leave %.1f%% of a traced request unattributed\n", w.name, 100*u)
	}
	return newResult(t, perLayer(), vals), nil
}

// newResult builds a result line reporting every declared metric; a
// declared metric the run did not measure reads 0.
func newResult(t tally, decls []metricDecl, vals map[string]float64) result {
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range decls {
		res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// probeEnv marks a child process as a set-up probe.
const probeEnv = "DUIBENCH_PROBE"

// probeSetup starts this binary as a set-up probe for w and returns the
// seconds from process start until the probe reports its set-up done.
func probeSetup(w workload, o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10))
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	elapsed := time.Since(start).Seconds()
	werr := cmd.Wait()
	switch {
	case rerr != nil || line != "ready\n":
		return 0, fmt.Errorf("%s: set-up probe did not report ready (%v)", w.name, werr)
	case werr != nil:
		return 0, fmt.Errorf("%s: set-up probe: %w", w.name, werr)
	}
	return elapsed, nil
}

// runProbe is the body of a set-up probe: set up, report, tear down.
func runProbe(w workload, o options, stateDir string) error {
	dir, err := os.MkdirTemp(stateDir, "probe-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	inst, err := w.open(o, dir)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	return inst.close()
}
