package advsearch

import (
	"context"
	"math"

	"dui/internal/runner"
	"dui/internal/stats"
)

// CEM is the primary searcher: the cross-entropy method over the
// transformed knob space. Each generation samples Pop candidates from an
// axis-aligned Gaussian, evaluates them in parallel, and refits the
// Gaussian to the elite fraction; a sigma floor keeps the proposal from
// collapsing before the budget is spent.
//
// Every draw comes from stats.ChildPath(seed, axSample, gen, member), and
// candidate (gen, member) is evaluated at stats.PathSeed(seed, axEval,
// gen, member): a candidate's stream depends only on its coordinates in
// the search, never on scheduling, so the whole Result is bit-identical
// across worker counts and reruns.
type CEM struct{}

// Name implements Searcher.
func (CEM) Name() string { return "cem" }

// Search implements Searcher.
func (CEM) Search(t Target, cfg Config) *Result {
	cfg = cfg.Defaults()
	space := t.Space()
	res := &Result{Searcher: CEM{}.Name(), Config: cfg}

	// Proposal distribution in search coordinates: start at mid-range
	// with initSigma of each range.
	mean := make([]float64, len(space))
	sigma := make([]float64, len(space))
	floor := make([]float64, len(space))
	for d, k := range space {
		lo, hi := k.searchBounds()
		mean[d] = (lo + hi) / 2
		sigma[d] = initSigma * (hi - lo)
		floor[d] = 0.02 * (hi - lo)
	}

	var best *Candidate
	for g := 0; g < cfg.Generations; g++ {
		members := make([]Vector, cfg.Pop)
		for m := range members {
			rng := stats.ChildPath(cfg.Seed, axSample, uint64(g), uint64(m))
			x := make(Vector, len(space))
			for d, k := range space {
				lo, hi := k.searchBounds()
				v := mean[d] + sigma[d]*rng.NormFloat64()
				if v < lo {
					v = lo
				}
				if v > hi {
					v = hi
				}
				x[d] = k.fromSearch(v)
			}
			members[m] = x
		}
		gen := g
		outs, _ := runner.Map(context.Background(), members, 0,
			runner.Config{Workers: cfg.Workers},
			func(_ context.Context, tr runner.Trial, x Vector) (Outcome, error) {
				return t.Evaluate(x, stats.PathSeed(cfg.Seed, axEval, uint64(gen), uint64(tr.Index))), nil
			})

		cands := make([]Candidate, cfg.Pop)
		flipped := 0
		for m := range cands {
			cands[m] = Candidate{X: members[m], Outcome: outs[m], Score: score(outs[m]), Gen: g, Member: m}
			if outs[m].Flipped {
				flipped++
				res.Flipped = append(res.Flipped, cands[m])
			}
		}
		res.Evals += cfg.Pop
		sortCandidates(cands)
		if best == nil || better(&cands[0], best) {
			c := cands[0]
			best = &c
		}
		res.Gens = append(res.Gens, GenStat{Gen: g, BestScore: cands[0].Score, Flipped: flipped})

		// Refit to the elite (at least one member) in search coordinates.
		ne := int(elite * float64(cfg.Pop))
		if ne < 1 {
			ne = 1
		}
		for d, k := range space {
			var sum, sq float64
			for _, c := range cands[:ne] {
				v := k.toSearch(c.X[d])
				sum += v
				sq += v * v
			}
			m := sum / float64(ne)
			variance := sq/float64(ne) - m*m
			if variance < 0 {
				variance = 0
			}
			mean[d] = m
			sigma[d] = math.Sqrt(variance)
			if sigma[d] < floor[d] {
				sigma[d] = floor[d]
			}
		}
	}
	res.Best = best
	return res
}
