package robustness

import (
	"math"

	"dui/internal/advsearch"
)

// Searchable is the optional knob interface of a System whose attacks
// can be searched adaptively. Each attack is a family of inputs over a
// typed knob space; the named attack the matrix scores is one point of
// it, and Run(attack, ...) is RunKnobs(attack, point, ...), so the
// matrix and the search run one code path.
type Searchable interface {
	System
	// Knobs returns attack's knob space, the named attack's own point in
	// it, and the Damage at which an input counts as a decision flip.
	Knobs(attack string, quick bool) (space advsearch.Space, point advsearch.Vector, flip float64)
	// RunKnobs runs one trial of attack at knob vector x, as Run does;
	// attack "" is the attack-free twin, which ignores x. The result's
	// Cost is the attacker's spend at x.
	RunKnobs(attack string, x advsearch.Vector, guarded bool, prof Profile, seed uint64, quick bool) TrialResult
}

// SearchTarget adapts one (system, attack, guard arm, profile) deployment
// to an advsearch.Target. An input flips the decision when its Damage
// reaches the attack's flip level and the guard did not detect it.
// Progress is Damage over the flip level, halved when detected: a
// detected input is at best half-way, the rest of the distance being
// evasion. Cost is the run's Cost. The evaluation seed is the trial
// seed, so a search at seed s replays exactly as a matrix trial would.
func SearchTarget(sys Searchable, attack string, guarded bool, prof Profile, quick bool) advsearch.Target {
	space, _, flip := sys.Knobs(attack, quick)
	return &searchTarget{sys: sys, attack: attack, guarded: guarded, prof: prof, quick: quick, space: space, flip: flip}
}

type searchTarget struct {
	sys     Searchable
	attack  string
	guarded bool
	prof    Profile
	quick   bool
	space   advsearch.Space
	flip    float64
}

func (t *searchTarget) Space() advsearch.Space { return t.space }

func (t *searchTarget) Evaluate(x advsearch.Vector, seed uint64) advsearch.Outcome {
	r := t.sys.RunKnobs(t.attack, x, t.guarded, t.prof, seed, t.quick)
	p := math.Min(r.Damage/t.flip, 1)
	if r.Detected {
		p /= 2
	}
	return advsearch.Outcome{Flipped: r.Damage >= t.flip && !r.Detected, Cost: r.Cost, Progress: p}
}
