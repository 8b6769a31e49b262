package robustness_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dui/internal/advsearch"
	"dui/internal/robustness"
)

var faultFree = robustness.AllProfiles[0]

// searchables returns the registry systems that implement Searchable,
// in canonical order.
func searchables() []robustness.Searchable {
	var out []robustness.Searchable
	for _, s := range robustness.Systems() {
		if k, ok := s.(robustness.Searchable); ok {
			out = append(out, k)
		}
	}
	return out
}

// searchable returns the registry's searchable system called name.
func searchable(t *testing.T, name string) robustness.Searchable {
	t.Helper()
	for _, s := range searchables() {
		if s.Name() == name {
			return s
		}
	}
	t.Fatalf("no searchable system %q", name)
	return nil
}

// TestKnobSpacesWellFormed: for every searchable system and attack, at
// both scales, knob names are unique, every domain is non-empty (and
// positive for log knobs), the flip level is a damage in (0, 1], and the
// named attack's point lies inside the space with integer knobs at
// integers.
func TestKnobSpacesWellFormed(t *testing.T) {
	for _, s := range searchables() {
		for _, atk := range s.Attacks() {
			for _, quick := range []bool{false, true} {
				space, point, flip := s.Knobs(atk, quick)
				where := fmt.Sprintf("%s/%s quick=%v", s.Name(), atk, quick)
				if len(space) == 0 || len(point) != len(space) {
					t.Fatalf("%s: %d knobs, point of %d", where, len(space), len(point))
				}
				if !(flip > 0 && flip <= 1) {
					t.Errorf("%s: flip level %v outside (0, 1]", where, flip)
				}
				seen := map[string]bool{}
				for d, k := range space {
					if seen[k.Name] {
						t.Errorf("%s: knob %q listed twice", where, k.Name)
					}
					seen[k.Name] = true
					if k.Min > k.Max || (k.Log && k.Min <= 0) {
						t.Errorf("%s: knob %q has domain [%v, %v] (log %v)", where, k.Name, k.Min, k.Max, k.Log)
					}
					if v := point[d]; v < k.Min || v > k.Max || (k.Integer && v != math.Round(v)) {
						t.Errorf("%s: point sets %q to %v, outside its domain [%v, %v] (integer %v)", where, k.Name, v, k.Min, k.Max, k.Integer)
					}
				}
			}
		}
	}
}

// TestRunIsRunKnobsAtPoint: Run of a named attack and of the twin is
// RunKnobs at the attack's own point, with the guard on and off.
func TestRunIsRunKnobsAtPoint(t *testing.T) {
	for _, s := range searchables() {
		for _, atk := range s.Attacks() {
			_, point, _ := s.Knobs(atk, true)
			for _, a := range []string{atk, ""} {
				for _, guarded := range []bool{false, true} {
					got := s.RunKnobs(a, point, guarded, faultFree, 5, true)
					want := s.Run(a, guarded, faultFree, 5, true)
					if got != want {
						t.Errorf("%s attack %q guarded %v: RunKnobs at the point %+v, Run %+v", s.Name(), a, guarded, got, want)
					}
				}
			}
		}
	}
}

// TestNamedPointFlips: each named attack flips its unguarded, fault-free
// deployment, at a positive cost.
func TestNamedPointFlips(t *testing.T) {
	for _, s := range searchables() {
		if s.Name() == "pcc" && testing.Short() {
			continue
		}
		for _, atk := range s.Attacks() {
			_, point, _ := s.Knobs(atk, true)
			out := robustness.SearchTarget(s, atk, false, faultFree, true).Evaluate(point, 11)
			if !out.Flipped || out.Cost <= 0 {
				t.Errorf("%s/%s: the named attack does not flip the unguarded deployment: %+v", s.Name(), atk, out)
			}
		}
	}
}

// TestBlinkWeakPoolNoFlip: 4 spoofed flows at 0.5 pps cannot trip the
// selector, and the outcome keeps a progress in [0, 1) for the search's
// gradient.
func TestBlinkWeakPoolNoFlip(t *testing.T) {
	blink := searchable(t, "blink")
	_, point, _ := blink.Knobs("hijack", true)
	weak := advsearch.Vector{4, 0.5, point[2], 0}
	out := robustness.SearchTarget(blink, "hijack", false, faultFree, true).Evaluate(weak, 11)
	if out.Flipped {
		t.Fatalf("4 flows at 0.5 pps flipped the deployment: %+v", out)
	}
	if out.Progress < 0 || out.Progress >= 1 {
		t.Fatalf("weak pool progress %v outside [0, 1)", out.Progress)
	}
}

// TestBlinkGuardRaisesTheBar pins the §5 claim at the search interface:
// the guard vetoes the named hijack, while the same hijack paced like
// genuine RTO backoff (mimic=1, the adaptive attacker) evades it.
func TestBlinkGuardRaisesTheBar(t *testing.T) {
	blink := searchable(t, "blink")
	for _, quick := range []bool{true, false} {
		if !quick && testing.Short() {
			continue
		}
		_, point, _ := blink.Knobs("hijack", quick)
		mimic := append(advsearch.Vector(nil), point...)
		mimic[3] = 1
		tgt := robustness.SearchTarget(blink, "hijack", true, faultFree, quick)
		for seed := uint64(1); seed <= 3; seed++ {
			if r := blink.RunKnobs("hijack", point, true, faultFree, seed, quick); !r.Detected || r.Damage != 0 {
				t.Errorf("quick=%v seed %d: the guard did not veto the named hijack: %+v", quick, seed, r)
			}
			if out := tgt.Evaluate(mimic, seed); !out.Flipped {
				t.Errorf("quick=%v seed %d: the RTO-mimicking hijack did not evade the guard: %+v", quick, seed, out)
			}
		}
	}
}

// TestPytheasGuardHoldsAtNamedPoint: dedup plus MAD filtering keep the
// named botnet from flipping the group.
func TestPytheasGuardHoldsAtNamedPoint(t *testing.T) {
	pytheas := searchable(t, "pytheas")
	_, point, _ := pytheas.Knobs("poison", true)
	if out := robustness.SearchTarget(pytheas, "poison", true, faultFree, true).Evaluate(point, 13); out.Flipped {
		t.Fatalf("input-quality defenses lost to the named botnet: %+v", out)
	}
}

// TestPCCLateStartCostsLess: an equalizer that starts late spends a
// smaller drop budget than one active from the start.
func TestPCCLateStartCostsLess(t *testing.T) {
	pcc := searchable(t, "pcc")
	_, point, _ := pcc.Knobs("equalizer", true)
	late := append(advsearch.Vector(nil), point...)
	late[2] = 24
	early := pcc.RunKnobs("equalizer", point, false, faultFree, 17, true)
	later := pcc.RunKnobs("equalizer", late, false, faultFree, 17, true)
	if early.Cost <= 0 || later.Cost >= early.Cost {
		t.Fatalf("late start should spend less: %v%% from 24 s vs %v%% from 0 s", later.Cost, early.Cost)
	}
}

// plantedSystem is an analytic Searchable with a planted guard gap: the
// attack's damage grows with its size up to a full flip at size 20, and
// the guard detects every attacked run except those whose stealth knob
// lands in [0.75, 0.9].
type plantedSystem struct{}

func (plantedSystem) Name() string      { return "planted" }
func (plantedSystem) Attacks() []string { return []string{"probe"} }

func (p plantedSystem) Run(attack string, guarded bool, prof robustness.Profile, seed uint64, quick bool) robustness.TrialResult {
	return p.RunKnobs(attack, advsearch.Vector{20, 0}, guarded, prof, seed, quick)
}

func (plantedSystem) Knobs(string, bool) (advsearch.Space, advsearch.Vector, float64) {
	return advsearch.Space{
		{Name: "size", Min: 1, Max: 100, Log: true},
		{Name: "stealth", Min: 0, Max: 1},
	}, advsearch.Vector{20, 0}, 1
}

func (plantedSystem) RunKnobs(attack string, x advsearch.Vector, guarded bool, _ robustness.Profile, _ uint64, _ bool) robustness.TrialResult {
	if attack == "" {
		return robustness.TrialResult{}
	}
	return robustness.TrialResult{
		Damage:   math.Min(x[0]/20, 1),
		Detected: guarded && (x[1] < 0.75 || x[1] > 0.9),
		Cost:     x[0],
	}
}

// TestSearchFindsPlantedGap: a small-budget search through the adapter
// finds the planted guard gap, and the minimal flipping input is stable
// across reruns.
func TestSearchFindsPlantedGap(t *testing.T) {
	tgt := robustness.SearchTarget(plantedSystem{}, "probe", true, faultFree, true)
	cfg := advsearch.Config{Seed: 4, Generations: 4, Pop: 12, Workers: 2}
	res := advsearch.CEM{}.Search(tgt, cfg)
	if res.Best == nil || !res.Best.Outcome.Flipped {
		t.Fatalf("search missed the planted gap within %d evals: best %+v", res.Evals, res.Best)
	}
	if s := res.Best.X[1]; s < 0.75 || s > 0.9 {
		t.Fatalf("best flip at stealth %v, outside the planted gap", s)
	}
	again := advsearch.CEM{}.Search(tgt, cfg)
	if !reflect.DeepEqual(res.Best, again.Best) {
		t.Fatalf("minimal flipping input unstable across reruns:\n%+v\n%+v", res.Best, again.Best)
	}
}

// TestAdaptiveGapsPinned pins what the adaptive search finds against the
// matrix's own guarded deployments, fault-free and quick, where the
// matrix scores the named attack as detected every time. Each point is a
// search's best guarded input (duireport advsearch -quick for Blink, the
// full-budget search for PCC); the count is how many of the seeds it
// evades the guard on:
//
//   - Blink: a storm without RTO mimicry, slightly smaller and earlier
//     than the named one, slips past the RTO-plausibility guard;
//   - PCC: a gentler equalizer (wider detect margin, far smaller extra
//     drop) keeps the full rate suppression below the loss-correlation
//     detector's threshold.
//
// The counts are input for hardening the guards; a change that moves
// them is a deliberate diff.
func TestAdaptiveGapsPinned(t *testing.T) {
	for _, c := range []struct {
		system, attack string
		x              advsearch.Vector
		seeds, evaded  int
	}{
		{"blink", "hijack", advsearch.Vector{45, 2.1829948543272297, 21.213043633653292, 0}, 10, 7},
		{"pcc", "equalizer", advsearch.Vector{0.015492243636916713, 0.006077022186275411, 0.30915772686419274}, 6, 6},
	} {
		t.Run(c.system, func(t *testing.T) {
			t.Parallel()
			sys := searchable(t, c.system)
			tgt := robustness.SearchTarget(sys, c.attack, true, faultFree, true)
			evaded := 0
			for seed := 1; seed <= c.seeds; seed++ {
				if tgt.Evaluate(c.x, uint64(seed)).Flipped {
					evaded++
				}
			}
			if evaded != c.evaded {
				t.Errorf("guarded %s evaded on %d/%d seeds, want %d", c.system, evaded, c.seeds, c.evaded)
			}
		})
	}
}
