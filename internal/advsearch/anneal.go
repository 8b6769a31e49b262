package advsearch

import (
	"math"

	"dui/internal/stats"
)

// Anneal is the fallback searcher: single-chain simulated annealing over
// the same transformed knob space and the same evaluation budget
// (Generations × Pop steps). It exists for landscapes where CEM's
// population Gaussian collapses onto a deceptive basin — a sequential
// chain with occasional uphill acceptance walks out of those.
//
// The chain is strictly sequential, so worker count is irrelevant to the
// result by construction; determinism comes from drawing step i's
// proposal noise at stats.ChildPath(seed, axSample, i, 0), its evaluation
// seed at stats.PathSeed(seed, axEval, i, 0), and its acceptance coin at
// stats.ChildPath(seed, axAccept, i, 0).
type Anneal struct{}

// Name implements Searcher.
func (Anneal) Name() string { return "anneal" }

// Search implements Searcher.
func (Anneal) Search(t Target, cfg Config) *Result {
	cfg = cfg.Defaults()
	space := t.Space()
	res := &Result{Searcher: Anneal{}.Name(), Config: cfg}
	steps := cfg.Generations * cfg.Pop
	if steps == 0 {
		return res
	}

	// Current point starts at mid-range; the step size anneals from
	// InitSigma of each range down to the 2% floor alongside the
	// temperature.
	cur := make([]float64, len(space))
	for d, k := range space {
		lo, hi := k.searchBounds()
		cur[d] = (lo + hi) / 2
	}
	realize := func(sc []float64) Vector {
		x := make(Vector, len(space))
		for d, k := range space {
			x[d] = k.fromSearch(sc[d])
		}
		return x
	}

	curX := realize(cur)
	curOut := t.Evaluate(curX, stats.PathSeed(cfg.Seed, axEval, 0, 0))
	curScore := score(curOut)
	best := &Candidate{X: curX, Outcome: curOut, Score: curScore, Gen: 0, Member: 0}
	if curOut.Flipped {
		res.Flipped = append(res.Flipped, *best)
	}
	res.Evals++

	for i := 1; i < steps; i++ {
		frac := float64(i) / float64(steps)
		// Geometric cooling over three decades of relative temperature.
		temp := math.Pow(10, -3*frac)
		prop := stats.ChildPath(cfg.Seed, axSample, uint64(i), 0)
		next := make([]float64, len(space))
		for d, k := range space {
			lo, hi := k.searchBounds()
			step := (cfg.InitSigma*(1-frac) + 0.02) * (hi - lo)
			v := cur[d] + step*prop.NormFloat64()
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			next[d] = v
		}
		x := realize(next)
		out := t.Evaluate(x, stats.PathSeed(cfg.Seed, axEval, uint64(i), 0))
		s := score(out)
		res.Evals++
		cand := Candidate{X: x, Outcome: out, Score: s, Gen: i / cfg.Pop, Member: i % cfg.Pop}
		if out.Flipped {
			res.Flipped = append(res.Flipped, cand)
		}
		if better(&cand, best) {
			c := cand
			best = &c
		}
		// Metropolis acceptance on the relative score increase, so the
		// rule behaves identically in the penalty region (~1e12) and the
		// cost region (~1e0..1e5).
		accept := s <= curScore
		if !accept {
			rel := (s - curScore) / math.Max(math.Abs(curScore), 1)
			coin := stats.ChildPath(cfg.Seed, axAccept, uint64(i), 0)
			accept = coin.Float64() < math.Exp(-rel/temp)
		}
		if accept {
			cur, curScore = next, s
		}
		if (i+1)%cfg.Pop == 0 {
			res.Gens = append(res.Gens, GenStat{Gen: i / cfg.Pop, BestScore: best.Score, Flipped: len(res.Flipped)})
		}
	}
	res.Best = best
	return res
}
