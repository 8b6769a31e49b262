package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"dui/internal/advsearch"
	"dui/internal/audit"
	"dui/internal/blink"
	"dui/internal/faults"
	"dui/internal/fuzz"
	"dui/internal/robustness"
	"dui/internal/scenario"
	"dui/internal/stats"
	"dui/internal/supervisor"
)

// ops is one job kind's execution vocabulary. Every function must be a
// pure function of its arguments (plus the deterministic simulation
// substrate): runOne(spec, i, seed) is the per-trial verdict the journal
// records, and assemble folds the verdicts — in trial order — into the
// canonical result value.
type ops struct {
	total    func(JobSpec) int
	init     func(JobSpec, int) (any, error)
	runOne   func(JobSpec, any, int, uint64) (json.RawMessage, error)
	assemble func(context.Context, JobSpec, [][]byte) (any, error)
	// partial marks a kind whose assemble accepts nil records — trials
	// an Env.Budget left unstarted. Other kinds fail a budget stop.
	partial bool
}

// kindOps resolves a canonical kind. Canon has already rejected unknown
// kinds, so the panic is unreachable from exported entry points.
func kindOps(kind string) ops {
	switch kind {
	case KindFuzz:
		return fuzzOps
	case KindChaos:
		return chaosOps
	case KindScenarios:
		return scenarioOps
	case KindAdv:
		return advOps
	case KindRobustness:
		return robustnessOps
	}
	panic("campaign: kindOps on unvalidated kind " + kind)
}

// rootSeed is the seed the kind's trial range expands from.
func rootSeed(s JobSpec) uint64 {
	switch s.Kind {
	case KindFuzz:
		return s.Fuzz.RootSeed
	case KindChaos:
		return s.Chaos.RootSeed
	case KindAdv:
		return s.Adv.Seed
	case KindRobustness:
		return s.Robustness.RootSeed // informational: trials reseed via robustness.TrialSeed
	default:
		return 1 // scenario batches carry their seeds inside each scenario
	}
}

// ---------------------------------------------------------------- fuzz

// fuzzRec is the journaled per-trial verdict of a fuzz job.
type fuzzRec struct {
	Seed       uint64            `json:"seed"`
	Violations []audit.Violation `json:"violations,omitempty"`
}

// FuzzFailure is one fuzzing find in a FuzzResult.
type FuzzFailure struct {
	Trial      int                `json:"trial"`
	Seed       uint64             `json:"seed"`
	Rule       string             `json:"rule"`
	Violations []string           `json:"violations"`
	Scenario   *scenario.Scenario `json:"scenario"`
	Shrunk     *scenario.Scenario `json:"shrunk,omitempty"`
	ShrinkRuns int                `json:"shrink_runs,omitempty"`
}

// FuzzResult is the canonical result of a fuzz job: a pure function of
// the canonical FuzzSpec, unless an Env.Budget stopped the run early.
type FuzzResult struct {
	Kind     string `json:"kind"`
	Seeds    int    `json:"seeds"`
	RootSeed uint64 `json:"root_seed"`
	// Skipped counts trials a budget left unstarted; a complete run
	// omits it.
	Skipped  int           `json:"skipped,omitempty"`
	Failures []FuzzFailure `json:"failures"`
}

var fuzzOps = ops{
	total: func(s JobSpec) int { return s.Fuzz.Seeds },
	init:  func(JobSpec, int) (any, error) { return nil, nil },
	runOne: func(s JobSpec, _ any, _ int, seed uint64) (json.RawMessage, error) {
		scn := fuzz.Generate(seed, s.Fuzz.GenConfig())
		rep := scenario.RunChecked(scn, scenario.Options{})
		return json.Marshal(fuzzRec{Seed: seed, Violations: rep.Violations})
	},
	assemble: func(ctx context.Context, s JobSpec, outs [][]byte) (any, error) {
		res := FuzzResult{Kind: KindFuzz, Seeds: s.Fuzz.Seeds, RootSeed: s.Fuzz.RootSeed,
			Failures: []FuzzFailure{}}
		for i, raw := range outs {
			if raw == nil {
				res.Skipped++
				continue
			}
			var rec fuzzRec
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("campaign: fuzz trial %d: corrupt record: %v", i, err)
			}
			if len(rec.Violations) == 0 {
				continue
			}
			// The scenario is a pure function of the recorded seed, so
			// failures journaled by an earlier (killed) process reproduce
			// exactly.
			scn := fuzz.Generate(rec.Seed, s.Fuzz.GenConfig())
			f := FuzzFailure{
				Trial: i, Seed: rec.Seed, Rule: rec.Violations[0].Rule,
				Scenario: scn,
			}
			for _, v := range rec.Violations {
				f.Violations = append(f.Violations, v.Error())
			}
			// Shrinking can run for minutes, so a cancel mid-phase must
			// surface as an error: returning unshrunk bytes with a nil
			// error would let the server cache a non-canonical result
			// under the job's content address forever.
			if s.Fuzz.Shrink {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				f.Shrunk, f.ShrinkRuns = fuzz.Shrink(scn, f.Rule, s.Fuzz.ShrinkBudget)
			}
			res.Failures = append(res.Failures, f)
		}
		return res, nil
	},
	partial: true,
}

// --------------------------------------------------------------- chaos

// chaosRec is the journaled per-trial verdict of a chaos job — the
// guarded-genuine-failure / unguarded-failure-free twin-run outcome
// under gray failure (the duireport chaos-eval trial body, kept here so
// server-mediated and inline runs share one implementation).
type chaosRec struct {
	Rerouted     bool    `json:"rerouted"`
	Latency      float64 `json:"latency"`
	Vetoes       int     `json:"vetoes"`
	FalseReroute bool    `json:"false_reroute"`
}

// ChaosRow aggregates one gray-intensity level.
type ChaosRow struct {
	Eps              float64 `json:"eps"`
	Trials           int     `json:"trials"`
	DetectRate       float64 `json:"detect_rate"`
	MedianLatency    float64 `json:"median_latency_s"`
	FalseVetoRate    float64 `json:"false_veto_rate"`
	FalseRerouteRate float64 `json:"false_reroute_rate"`
}

// ChaosResult is the canonical result of a chaos job.
type ChaosResult struct {
	Kind     string     `json:"kind"`
	Trials   int        `json:"trials"`
	Levels   int        `json:"levels"`
	RootSeed uint64     `json:"root_seed"`
	Rows     []ChaosRow `json:"rows"`
}

// chaosEps returns the gray intensity of level li.
func chaosEps(c *ChaosSpec, li int) float64 {
	return float64(li) / float64(c.Levels-1)
}

var chaosOps = ops{
	total: func(s JobSpec) int { return s.Chaos.Trials * s.Chaos.Levels },
	init:  func(JobSpec, int) (any, error) { return nil, nil },
	runOne: func(s JobSpec, _ any, trial int, seed uint64) (json.RawMessage, error) {
		c := s.Chaos
		model := supervisor.DefaultRTOModel()
		e := chaosEps(c, trial/c.Trials)
		grayCfg := faults.GrayConfig{
			LossP: 0.03 * e, DupP: 0.01 * e, CorruptP: 0.005 * e,
			JitterP: 0.5, Jitter: 0.04 * e,
		}
		chaos := func(base uint64) func(blink.FailoverTopo) {
			if e == 0 {
				return nil // ε=0 stays bit-identical to a chaos-free run
			}
			return func(topo blink.FailoverTopo) {
				topo.PrimaryTrunk.SetFault(faults.NewGray(grayCfg, stats.ChildAt(seed, base)))
				topo.PrimaryTail.SetFault(faults.NewGray(grayCfg, stats.ChildAt(seed, base+1)))
			}
		}
		// (a) Guarded deployment, genuine failure under chaos.
		guarded := blink.RunFailover(blink.FailoverConfig{
			FailAt: c.FailAt, Duration: c.Duration,
			Hook:  func(p *blink.Pipeline) { supervisor.GuardPipeline(p, model) },
			Chaos: chaos(0),
		})
		// (b) Unguarded deployment, no failure: does chaos alone reroute?
		unguarded := blink.RunFailover(blink.FailoverConfig{
			FailAt: 0, Duration: c.Duration,
			Chaos: chaos(2),
		})
		return json.Marshal(chaosRec{
			Rerouted:     guarded.Rerouted,
			Latency:      guarded.DetectionLatency,
			Vetoes:       guarded.VetoedReroutes,
			FalseReroute: unguarded.Rerouted,
		})
	},
	assemble: func(_ context.Context, s JobSpec, outs [][]byte) (any, error) {
		c := s.Chaos
		res := ChaosResult{Kind: KindChaos, Trials: c.Trials, Levels: c.Levels, RootSeed: c.RootSeed}
		for li := 0; li < c.Levels; li++ {
			detect, vetoRuns, falseRe := 0, 0, 0
			var lats []float64
			for t := 0; t < c.Trials; t++ {
				var rec chaosRec
				if err := json.Unmarshal(outs[li*c.Trials+t], &rec); err != nil {
					return nil, fmt.Errorf("campaign: chaos trial %d: corrupt record: %v", li*c.Trials+t, err)
				}
				if rec.Rerouted {
					detect++
					lats = append(lats, rec.Latency)
				}
				if rec.Vetoes > 0 {
					vetoRuns++
				}
				if rec.FalseReroute {
					falseRe++
				}
			}
			n := float64(c.Trials)
			res.Rows = append(res.Rows, ChaosRow{
				Eps: chaosEps(c, li), Trials: c.Trials,
				DetectRate:       float64(detect) / n,
				MedianLatency:    median(lats),
				FalseVetoRate:    float64(vetoRuns) / n,
				FalseRerouteRate: float64(falseRe) / n,
			})
		}
		return res, nil
	},
}

// median returns the middle of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ----------------------------------------------------------- scenarios

// scenarioRec is the journaled per-scenario verdict of a scenario batch.
type scenarioRec struct {
	Violations []audit.Violation `json:"violations,omitempty"`
	FinalTime  float64           `json:"final_time"`
}

// ScenarioVerdict is one scenario's outcome in a ScenariosResult.
type ScenarioVerdict struct {
	Index      int      `json:"index"`
	Name       string   `json:"name,omitempty"`
	Failed     bool     `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	FinalTime  float64  `json:"final_time"`
}

// ScenariosResult is the canonical result of a scenario batch.
type ScenariosResult struct {
	Kind      string            `json:"kind"`
	Scenarios int               `json:"scenarios"`
	Failures  int               `json:"failures"`
	Verdicts  []ScenarioVerdict `json:"verdicts"`
}

var scenarioOps = ops{
	total: func(s JobSpec) int { return len(s.Scenarios.Scenarios) },
	init:  func(JobSpec, int) (any, error) { return nil, nil },
	runOne: func(s JobSpec, _ any, trial int, _ uint64) (json.RawMessage, error) {
		scn := s.Scenarios.Scenarios[trial].Clone()
		rep := scenario.RunChecked(&scn, scenario.Options{})
		return json.Marshal(scenarioRec{Violations: rep.Violations, FinalTime: rep.FinalTime})
	},
	assemble: func(_ context.Context, s JobSpec, outs [][]byte) (any, error) {
		res := ScenariosResult{Kind: KindScenarios, Scenarios: len(outs)}
		for i, raw := range outs {
			var rec scenarioRec
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("campaign: scenario %d: corrupt record: %v", i, err)
			}
			v := ScenarioVerdict{
				Index: i, Name: s.Scenarios.Scenarios[i].Name,
				Failed: len(rec.Violations) > 0, FinalTime: rec.FinalTime,
			}
			for _, viol := range rec.Violations {
				v.Violations = append(v.Violations, viol.Error())
			}
			if v.Failed {
				res.Failures++
			}
			res.Verdicts = append(res.Verdicts, v)
		}
		return res, nil
	},
}

// ----------------------------------------------------------------- adv

// AdvSystem is one (system, deployment) attack-frontier search in an
// AdvResult — the same shape advsearch has always emitted.
type AdvSystem struct {
	System   string                    `json:"system"`
	Guarded  bool                      `json:"guarded"`
	Searcher string                    `json:"searcher"`
	Evals    int                       `json:"evals"`
	Best     *advsearch.Candidate      `json:"best"`
	Frontier []advsearch.FrontierPoint `json:"frontier"`
	Gens     []advsearch.GenStat       `json:"gens"`
}

// AdvResult is the canonical result of an attack-frontier job.
type AdvResult struct {
	Kind        string      `json:"kind"`
	Seed        uint64      `json:"seed"`
	Generations int         `json:"generations"`
	Pop         int         `json:"pop"`
	Validations int         `json:"validations"`
	Systems     []AdvSystem `json:"systems"`
}

// advTarget is the matrix's own deployment of system under its one
// attack, fault-free, as a search target.
func advTarget(system string, guarded, quick bool) advsearch.Target {
	for _, s := range robustness.Systems() {
		if k, ok := s.(robustness.Searchable); ok && s.Name() == system {
			return robustness.SearchTarget(k, s.Attacks()[0], guarded, robustness.AllProfiles[0], quick)
		}
	}
	panic("campaign: advTarget on unvalidated system " + system)
}

// runAdv executes the full attack-frontier search for spec on workers
// in-process workers and returns the result. Deterministic at any
// worker count (pinned by internal/advsearch tests).
func runAdv(a *AdvSpec, workers int) AdvResult {
	var s advsearch.Searcher
	if a.Searcher == "anneal" {
		s = advsearch.Anneal{}
	} else {
		s = advsearch.CEM{}
	}
	var deployments []bool
	switch a.Guarded {
	case "both":
		deployments = []bool{false, true}
	case "off":
		deployments = []bool{false}
	case "on":
		deployments = []bool{true}
	}
	out := AdvResult{Kind: KindAdv, Seed: a.Seed, Generations: a.Gens, Pop: a.Pop, Validations: a.Validate}
	// Fixed iteration order (system-major, unguarded first) so the JSON
	// layout never depends on spec spelling.
	for _, sys := range a.Systems {
		for _, g := range deployments {
			tgt := advTarget(sys, g, a.Quick)
			res := s.Search(tgt, advsearch.Config{
				Seed: a.Seed, Generations: a.Gens, Pop: a.Pop, Workers: workers,
			})
			front := advsearch.Frontier(tgt, res, a.Validate, workers)
			out.Systems = append(out.Systems, AdvSystem{
				System: sys, Guarded: g, Searcher: s.Name(),
				Evals: res.Evals, Best: res.Best, Frontier: front, Gens: res.Gens,
			})
		}
	}
	return out
}

// advState carries the worker count from init to runOne.
type advState struct{ workers int }

var advOps = ops{
	// A search is sequential across generations, so the adv kind is one
	// indivisible trial; internal parallelism comes from Workers.
	total: func(JobSpec) int { return 1 },
	init:  func(_ JobSpec, workers int) (any, error) { return advState{workers: workers}, nil },
	runOne: func(s JobSpec, state any, _ int, _ uint64) (json.RawMessage, error) {
		return json.Marshal(runAdv(s.Adv, state.(advState).workers))
	},
	assemble: func(_ context.Context, _ JobSpec, outs [][]byte) (any, error) {
		var res AdvResult
		if err := json.Unmarshal(outs[0], &res); err != nil {
			return nil, fmt.Errorf("campaign: adv record corrupt: %v", err)
		}
		return res, nil
	},
}
