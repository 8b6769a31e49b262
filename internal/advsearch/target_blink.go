package advsearch

import (
	"math"
	"sort"

	"dui/internal/blink"
	"dui/internal/scenario"
	"dui/internal/supervisor"
)

// BlinkTarget searches for the cheapest spoofed traffic that makes a
// Blink deployment reroute a healthy path (§3.1's fake-retransmission
// storm, here synthesized rather than hand-tuned). The decision under
// attack is the failover itself: Flipped means the pipeline executed a
// reroute during a run with no real failure anywhere.
//
// Guarded deployments run the same scenario with the §5 RTO-plausibility
// guard installed through scenario Options.Hook; the guard's model is
// supervisor.DefaultRTOModel, trained once per process from the SRTTs of
// a clean failover run — the passive measurement the supervisor has in
// deployment.
type BlinkTarget struct {
	// Guarded installs the supervisor guard on every evaluation.
	Guarded bool
	// GuardMaxRisk overrides the guard's veto threshold (0 = default
	// 0.5). A value > 1 is the deliberately weakened guard the planted-
	// gap test aims the search at.
	GuardMaxRisk float64
	// Duration is the scenario length in virtual seconds (0 = 6).
	Duration float64
	// MaxFlows caps the spoofed-flow knob (0 = 256). Tests shrink it to
	// keep evaluations cheap.
	MaxFlows float64
}

// Selector parameters of the deployment under attack: small enough that
// modest spoofed pools can cover the threshold, large enough that the
// reroute-threshold oracle is meaningful.
const (
	blinkCells     = 64
	blinkThreshold = 10
	blinkWindow    = 0.8
)

// NewBlinkTarget builds the target with its default duration and flow
// cap.
func NewBlinkTarget(guarded bool) *BlinkTarget {
	t := &BlinkTarget{Guarded: guarded}
	t.init()
	return t
}

func (t *BlinkTarget) init() {
	if t.Duration <= 0 {
		t.Duration = 6
	}
	if t.MaxFlows <= 0 {
		t.MaxFlows = 256
	}
}

// Name implements Target.
func (t *BlinkTarget) Name() string {
	if t.Guarded {
		return "blink-guarded"
	}
	return "blink"
}

// Space implements Target. Knob semantics:
//
//   - flows, pps: the spoofed always-active pool size and per-flow rate
//   - storm_at, storm_dur: burst phase and duration of the fake-
//     retransmission storm
//   - mimic: packet mix — 1 paces the storm like genuine RTO backoff
//     (the §5 adaptive attacker), 0 storms at the pool's own pacing
//   - inject_pps, tap_link: MitM injection rate and tap placement; link
//     0 sits upstream of the monitor, link 1 downstream of it (spoofed
//     packets there never reach the selector — placement is part of what
//     the search must get right)
func (t *BlinkTarget) Space() Space {
	t.init()
	return Space{
		{Name: "flows", Min: 4, Max: t.MaxFlows, Integer: true, Log: true},
		{Name: "pps", Min: 0.5, Max: 40, Log: true},
		{Name: "storm_at", Min: 0.2, Max: t.Duration / 2},
		{Name: "storm_dur", Min: 0.5, Max: t.Duration - 1},
		{Name: "mimic", Min: 0, Max: 1, Integer: true},
		{Name: "inject_pps", Min: 0, Max: 100},
		{Name: "tap_link", Min: 0, Max: 1, Integer: true},
	}
}

// Evaluate implements Target: realize the knobs as a scenario Scenario,
// run it under the determinism oracle (RunChecked — an attack input that
// diverges across the double run is worthless as a reproducer and scores
// as a non-flip), and read the deployment's decision off the report.
func (t *BlinkTarget) Evaluate(x Vector, evalSeed uint64) Outcome {
	t.init()
	flows := int(x[0])
	pps := x[1]
	stormAt := x[2]
	until := math.Min(stormAt+x[3], t.Duration)
	mimic := x[4] >= 0.5
	injectPPS := x[5]
	tapLink := int(x[6])
	if evalSeed == 0 {
		evalSeed = 1
	}

	// src(0) ── rBlink(1) ──(primary rGood(2) | backup rAlt(3))── victim(4).
	// No failure anywhere: every reroute is attack-induced.
	s := &scenario.Scenario{
		Name: "advsearch-blink", Seed: evalSeed, Duration: t.Duration,
		Nodes: []scenario.NodeSpec{
			{Name: "src"}, {Name: "rBlink", Router: true},
			{Name: "rGood", Router: true}, {Name: "rAlt", Router: true},
			{Name: "victim"},
		},
		Links: []scenario.LinkSpec{
			{A: 0, B: 1, Delay: 0.002}, // 0: src–rBlink (upstream of the monitor)
			{A: 1, B: 2, Delay: 0.005},
			{A: 1, B: 3, Delay: 0.008},
			{A: 2, B: 4, Delay: 0.005}, // 3: rGood–victim (downstream of the monitor)
			{A: 3, B: 4, Delay: 0.005},
		},
		Workloads: []scenario.WorkloadSpec{
			// Fixed legitimate background the attacker hides in.
			{Kind: scenario.KindLegit, From: 0, To: 4, Flows: 8, PPS: 5, Until: t.Duration},
			{Kind: scenario.KindAttack, From: 0, To: 4, Flows: flows, PPS: pps,
				Until: until, RetransmitFrom: stormAt, MimicRTO: mimic},
		},
		Blink: &scenario.BlinkSpec{
			Router: 1, Victim: 4, NextHops: []int{2, 3},
			Cells: blinkCells, Threshold: blinkThreshold, Window: blinkWindow,
		},
	}
	if injectPPS >= 1 {
		link := 0
		if tapLink == 1 {
			link = 3
		}
		s.Taps = append(s.Taps, scenario.TapSpec{
			Link: link, Dir: 0, InjectPPS: injectPPS, InjectUntil: until, InjectTo: 4,
		})
	}

	// The hook installs the guard and a per-run retransmission recorder.
	// RunChecked invokes it for both runs of the double run; the recorder
	// is re-created per run and the captured pointer ends up at the second
	// run's (identical, by determinism) events.
	type retrRec struct {
		times []float64
		cells []int
	}
	var rec *retrRec
	hook := func(b *scenario.Built) {
		r := &retrRec{}
		rec = r
		b.Pipe.Monitor(0).OnRetrans(func(ev blink.RetransEvent) {
			r.times = append(r.times, ev.Now)
			r.cells = append(r.cells, ev.Cell)
		})
		if t.Guarded {
			supervisor.GuardPipeline(b.Pipe, supervisor.DefaultRTOModel()).MaxRisk = t.GuardMaxRisk
		}
	}
	rep := scenario.RunChecked(s, scenario.Options{Hook: hook})

	out := Outcome{
		// Cost: spoofed packet-seconds of the pool plus the injection
		// budget — the attacker's sending effort.
		Cost: float64(flows)*pps*(until-stormAt) + injectPPS*until,
	}
	if rep.HasRule(scenario.RuleDeterminism) || rep.HasRule(scenario.RulePanic) {
		return out
	}
	out.Flipped = rep.Reroutes > 0
	out.Progress = retransProgress(rec.times, rec.cells)
	if out.Flipped {
		out.Progress = 1
	}
	return out
}

// retransProgress grades how close the observed retransmissions came to
// tripping the selector: the peak number of distinct cells retransmitting
// within one window, over the threshold.
func retransProgress(times []float64, cells []int) float64 {
	if len(times) == 0 {
		return 0
	}
	type ev struct {
		t float64
		c int
	}
	evs := make([]ev, len(times))
	for i := range times {
		evs[i] = ev{times[i], cells[i]}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	peak := 0
	count := map[int]int{}
	lo := 0
	for hi := range evs {
		count[evs[hi].c]++
		for evs[hi].t-evs[lo].t > blinkWindow {
			count[evs[lo].c]--
			if count[evs[lo].c] == 0 {
				delete(count, evs[lo].c)
			}
			lo++
		}
		if len(count) > peak {
			peak = len(count)
		}
	}
	p := float64(peak) / blinkThreshold
	if p > 1 {
		p = 1
	}
	return p
}
