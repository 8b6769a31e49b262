// Package advsearch is a seed-deterministic black-box optimizer for
// adversarial inputs: it searches a typed attack-knob space (flow counts,
// rates, timing, packet mix) for the minimal-cost input that flips a
// Target's decision. The package holds only the optimizer; the targets are
// the robustness matrix's own deployments, adapted by
// robustness.SearchTarget — a Blink reroute without a failure, a Pytheas
// group's honest QoE poisoned, a PCC rate collapse — with and without the
// internal/supervisor guard in front of them.
//
// The paper's attacks (§3–4) are hand-crafted; this package asks the
// harder engineering question the defenses of §5 raise: what does the
// *cheapest* successful attack cost, and how much does a guard move that
// cost? The answer is an attack-frontier curve (cost vs validated success
// rate) per system and deployment, produced by duireport advsearch.
//
// # Determinism contract
//
// Every random draw descends from Config.Seed through the stats seed tree
// with a distinct purpose tag (axSample, axEval, axAccept, axValidate), so
// a search is a pure function of (target, config): reruns are
// bit-identical, results never depend on worker count or completion order,
// and a frontier is reproducible from the single root seed printed with
// it. Candidate evaluation fans out on internal/runner, which returns
// results in member order regardless of scheduling; every reduction
// (elite selection, best tracking, frontier assembly) iterates in that
// fixed order.
package advsearch

import (
	"math"
	"sort"
)

// Purpose tags for seed-tree derivation (stats.ChildPath/PathSeed leading
// axis). Tags are arbitrary distinct values; they share no namespace with
// the flat ChildAt index ranges other packages use, because the tag is
// consumed by its own derivation level (pinned by seedtree_test.go).
const (
	axSample   = 0xA11 // proposal noise, by (generation, member)
	axEval     = 0xA12 // per-candidate evaluation seeds
	axAccept   = 0xA13 // annealing acceptance coin flips
	axValidate = 0xA14 // frontier validation replications
)

// nonFlipPenalty dominates every realizable cost, so any flipping
// candidate outranks every non-flipping one; the (2 - progress) factor
// still grades non-flipping candidates by how close they came, giving the
// optimizer a gradient toward the decision boundary.
const nonFlipPenalty = 1e12

const (
	// elite is the fraction of each generation that refits the proposal
	// distribution (CEM only).
	elite float64 = 0.25
	// initSigma scales the initial proposal stddev as a fraction of each
	// knob's (transformed) range.
	initSigma float64 = 0.35
)

// Knob is one searchable attack parameter.
type Knob struct {
	Name string `json:"name"`
	// Min and Max bound the knob's domain (inclusive).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Integer rounds realized values to the nearest integer (flow counts,
	// placement choices, boolean switches as 0/1).
	Integer bool `json:"integer,omitempty"`
	// Log searches the knob in log10 space — the right geometry for
	// scale-free knobs like flow counts and packet rates.
	Log bool `json:"log,omitempty"`
}

// Space is an ordered attack-knob vector type; Vector values index it
// positionally.
type Space []Knob

// Vector is one realized knob setting, aligned with its Space.
type Vector []float64

// Outcome is a target's judgment of one candidate input.
type Outcome struct {
	// Flipped reports whether the input flipped the system's decision
	// (the attack succeeded).
	Flipped bool `json:"flipped"`
	// Cost is the attacker's spend (packets, bots, drop budget — the
	// target defines the unit); lower is better among flipping inputs.
	Cost float64 `json:"cost"`
	// Progress in [0, 1] grades how close a non-flipping input came to
	// the decision boundary (1 = at the boundary); it shapes the search
	// landscape outside the success region.
	Progress float64 `json:"progress"`
}

// Target is a deployed system under attack-input search. Evaluate must be
// a pure function of (x, evalSeed) — same input, same outcome — and safe
// for concurrent calls; the searcher fans evaluations out on
// internal/runner.
type Target interface {
	Space() Space
	Evaluate(x Vector, evalSeed uint64) Outcome
}

// Config tunes a search. The zero value is filled by Defaults.
type Config struct {
	// Seed roots every random draw of the search.
	Seed uint64 `json:"seed"`
	// Generations and Pop set the evaluation budget (Generations × Pop).
	Generations int `json:"generations"`
	Pop         int `json:"pop"`
	// Workers bounds evaluation parallelism (<= 0 = GOMAXPROCS). The
	// result is identical at any worker count.
	Workers int `json:"-"`
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Generations <= 0 {
		c.Generations = 8
	}
	if c.Pop <= 0 {
		c.Pop = 24
	}
	return c
}

// Candidate is one evaluated input.
type Candidate struct {
	X       Vector  `json:"x"`
	Outcome Outcome `json:"outcome"`
	// Score is the search objective (lower is better): Cost when
	// Flipped, nonFlipPenalty·(2−Progress) otherwise.
	Score float64 `json:"score"`
	// Gen and Member locate the candidate in the search (and hence its
	// seeds) for exact replay.
	Gen    int `json:"gen"`
	Member int `json:"member"`
}

// GenStat summarizes one generation.
type GenStat struct {
	Gen       int     `json:"gen"`
	BestScore float64 `json:"best_score"`
	Flipped   int     `json:"flipped"`
}

// Result is a completed search.
type Result struct {
	Searcher string `json:"searcher"`
	Config   Config `json:"config"`
	// Best is the lowest-score candidate (nil only when the budget was
	// zero). Best.Outcome.Flipped tells whether the search succeeded.
	Best *Candidate `json:"best"`
	// Flipped holds every successful candidate in (gen, member) order —
	// the frontier's raw material.
	Flipped []Candidate `json:"flipped,omitempty"`
	Gens    []GenStat   `json:"gens"`
	Evals   int         `json:"evals"`
}

// Searcher is a search strategy over a Target.
type Searcher interface {
	Name() string
	Search(t Target, cfg Config) *Result
}

// score maps an outcome to the search objective.
func score(o Outcome) float64 {
	if o.Flipped {
		return o.Cost
	}
	p := o.Progress
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return nonFlipPenalty * (2 - p)
}

// transformed coordinates: Log knobs are searched in log10 space so a
// multiplicative knob gets an additive geometry.

func (k Knob) toSearch(v float64) float64 {
	if k.Log {
		return math.Log10(v)
	}
	return v
}

func (k Knob) fromSearch(v float64) float64 {
	if k.Log {
		v = math.Pow(10, v)
	}
	if v < k.Min {
		v = k.Min
	}
	if v > k.Max {
		v = k.Max
	}
	if k.Integer {
		v = math.Round(v)
		if v < k.Min {
			v = math.Ceil(k.Min)
		}
		if v > k.Max {
			v = math.Floor(k.Max)
		}
	}
	return v
}

// searchBounds returns the knob's domain in search coordinates.
func (k Knob) searchBounds() (lo, hi float64) {
	return k.toSearch(k.Min), k.toSearch(k.Max)
}

// better orders candidates for elite selection and best tracking: by
// score, then (gen, member) as the deterministic tie-break so equal-score
// candidates rank identically on every run and worker count.
func better(a, b *Candidate) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.Gen != b.Gen {
		return a.Gen < b.Gen
	}
	return a.Member < b.Member
}

// sortCandidates sorts by the deterministic (score, gen, member) order.
func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool { return better(&cs[i], &cs[j]) })
}
