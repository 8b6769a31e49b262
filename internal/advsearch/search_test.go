package advsearch

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"dui/internal/stats"
)

// synthTarget is a cheap analytic target for searcher unit tests: the
// decision flips inside a box in a 2-knob space, cost is x[0], and
// progress decays with distance to the box. A per-eval-seed jitter makes
// flips near the boundary seed-dependent, exercising frontier validation.
type synthTarget struct {
	// flaky widens the flip box by a seed-dependent margin.
	flaky bool
}

func (synthTarget) Space() Space {
	return Space{
		{Name: "a", Min: 1, Max: 1000, Log: true},
		{Name: "b", Min: -5, Max: 5},
	}
}

func (s synthTarget) Evaluate(x Vector, evalSeed uint64) Outcome {
	lo := 50.0
	if s.flaky {
		// Seed-dependent boundary: candidates in [40, 60) flip only for
		// some evaluation seeds.
		lo = 40 + 20*stats.NewRNG(evalSeed).Float64()
	}
	flipped := x[0] >= lo && math.Abs(x[1]) < 2
	dist := 0.0
	if x[0] < lo {
		dist += (lo - x[0]) / lo
	}
	if math.Abs(x[1]) >= 2 {
		dist += math.Abs(x[1]) - 2
	}
	p := 1 - dist
	if p < 0 {
		p = 0
	}
	return Outcome{Flipped: flipped, Cost: x[0], Progress: p}
}

func TestCEMFindsMinimalFlip(t *testing.T) {
	res := CEM{}.Search(synthTarget{}, Config{Seed: 3, Generations: 10, Pop: 32})
	if res.Best == nil || !res.Best.Outcome.Flipped {
		t.Fatalf("CEM found no flipping input: %+v", res.Best)
	}
	// The cheapest flip costs 50; CEM should land near it.
	if res.Best.Score > 100 {
		t.Fatalf("CEM best cost %.1f far from the 50 optimum", res.Best.Score)
	}
	if res.Evals != 10*32 {
		t.Fatalf("evals %d != budget", res.Evals)
	}
}

func TestAnnealFindsFlip(t *testing.T) {
	res := Anneal{}.Search(synthTarget{}, Config{Seed: 3, Generations: 10, Pop: 32})
	if res.Best == nil || !res.Best.Outcome.Flipped {
		t.Fatalf("anneal found no flipping input: %+v", res.Best)
	}
	if res.Best.Score > 200 {
		t.Fatalf("anneal best cost %.1f far from the 50 optimum", res.Best.Score)
	}
}

// TestSearchersDeterministic pins bit-identical reruns for both
// strategies.
func TestSearchersDeterministic(t *testing.T) {
	for _, s := range []Searcher{CEM{}, Anneal{}} {
		a := s.Search(synthTarget{flaky: true}, Config{Seed: 9, Generations: 6, Pop: 16})
		b := s.Search(synthTarget{flaky: true}, Config{Seed: 9, Generations: 6, Pop: 16})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: rerun differs", s.Name())
		}
	}
}

// TestWorkerCountIndependence is the satellite acceptance property: the
// full CEM search plus frontier, serialized to JSON, is byte-identical
// between 1 worker and 4 workers.
func TestWorkerCountIndependence(t *testing.T) {
	tgt := synthTarget{flaky: true}
	run := func(workers int) []byte {
		cfg := Config{Seed: 5, Generations: 8, Pop: 24, Workers: workers}
		res := CEM{}.Search(tgt, cfg)
		front := Frontier(tgt, res, 5, workers)
		b, err := json.Marshal(struct {
			Res   *Result
			Front []FrontierPoint
		}{res, front})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	four := run(4)
	if string(one) != string(four) {
		t.Fatal("search+frontier JSON differs between -parallel 1 and 4")
	}
}

// TestFrontierValidatesFlakyFlips pins the frontier semantics: a
// boundary candidate that flipped under its search seed earns a
// fractional success rate under validation seeds, frontier points are
// sorted by cost, and success rates strictly increase along the curve.
func TestFrontierValidatesFlakyFlips(t *testing.T) {
	tgt := synthTarget{flaky: true}
	res := CEM{}.Search(tgt, Config{Seed: 7, Generations: 8, Pop: 24})
	if len(res.Flipped) == 0 {
		t.Fatal("search found no flips to build a frontier from")
	}
	front := Frontier(tgt, res, 8, 0)
	if len(front) == 0 {
		t.Fatal("no frontier point validated")
	}
	for i, p := range front {
		if p.SuccessRate <= 0 || p.SuccessRate > 1 {
			t.Fatalf("point %d: success rate %v out of (0,1]", i, p.SuccessRate)
		}
		if i > 0 {
			if p.Cost < front[i-1].Cost {
				t.Fatal("frontier not sorted by cost")
			}
			if p.SuccessRate <= front[i-1].SuccessRate {
				t.Fatal("frontier success rates not strictly increasing")
			}
		}
		if _, ok := p.Knobs["a"]; !ok {
			t.Fatal("frontier point lost its knob map")
		}
	}
}

// TestKnobRealization pins the transformed-space plumbing: integer
// rounding stays in range, log knobs realize within bounds.
func TestKnobRealization(t *testing.T) {
	k := Knob{Name: "n", Min: 4, Max: 256, Integer: true, Log: true}
	lo, hi := k.searchBounds()
	for _, v := range []float64{lo - 10, lo, (lo + hi) / 2, hi, hi + 10} {
		got := k.fromSearch(v)
		if got < k.Min || got > k.Max || got != math.Round(got) {
			t.Fatalf("fromSearch(%v) = %v escapes the integer domain", v, got)
		}
	}
	b := Knob{Name: "b", Min: -5, Max: 5}
	if b.fromSearch(-99) != -5 || b.fromSearch(99) != 5 {
		t.Fatal("linear knob not clamped")
	}
}
