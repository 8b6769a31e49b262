package robustness_test

import (
	"slices"
	"testing"

	"dui/internal/robustness"
)

// TestKnownLimitationsPinned pins the matrix's known-weak guarded cells
// (seed 1; 2 quick trials, or 20 full-scale trials where two trials hide
// the effect) to their exact values, so a fix or a regression in any of
// them is a deliberate diff rather than silent drift:
//
//   - the Dapper guard false-vetoes every attack-free twin under gray
//     loss, for all three attacks;
//   - inflate-window does full damage through the Dapper guard under gray
//     and flap, and goes undetected under flap;
//   - the PCC guard detects the equalizer fault-free but does not
//     protect: damage stays near its unguarded value;
//   - at full scale the PCC guard false-vetoes 2 of 20 attack-free twins
//     under gray loss (0 of 2 at the matrix's default trial count);
//   - the BNN guard leaves most of the evasion damage in place, and at
//     20 full-scale trials detects only 17 of the evasions.
func TestKnownLimitationsPinned(t *testing.T) {
	want := []limitation{
		{quick: true, Cell: robustness.Cell{System: "dapper", Attack: "inject-retrans", Guarded: true, Profile: "gray", Trials: 2,
			DetectRate: 1, FalseVetoRate: 1, Damage: 0, TwinDamage: 0, MeanChecks: 2233}},
		{quick: true, Cell: robustness.Cell{System: "dapper", Attack: "shrink-window", Guarded: true, Profile: "gray", Trials: 2,
			DetectRate: 1, FalseVetoRate: 1, Damage: 0, TwinDamage: 0, MeanChecks: 1926.75}},
		{quick: true, Cell: robustness.Cell{System: "dapper", Attack: "inflate-window", Guarded: true, Profile: "gray", Trials: 2,
			DetectRate: 1, FalseVetoRate: 1, Damage: 1, TwinDamage: 0, MeanChecks: 11463.75}},
		{quick: true, Cell: robustness.Cell{System: "dapper", Attack: "inflate-window", Guarded: true, Profile: "flap", Trials: 2,
			DetectRate: 0, FalseVetoRate: 0, Damage: 1, TwinDamage: 0, MeanChecks: 9376.5}},
		{quick: true, Cell: robustness.Cell{System: "pcc", Attack: "equalizer", Guarded: true, Profile: "none", Trials: 2,
			DetectRate: 1, FalseVetoRate: 0, Damage: 0.8997241379310346, TwinDamage: 0.1977931034482759, MeanChecks: 1}},
		{quick: true, Cell: robustness.Cell{System: "bnn", Attack: "evade", Guarded: true, Profile: "none", Trials: 2,
			DetectRate: 1, FalseVetoRate: 0, Damage: 0.7987264673311185, TwinDamage: 0.29166666666666663, MeanChecks: 50.5}},
		{Cell: robustness.Cell{System: "bnn", Attack: "evade", Guarded: true, Profile: "none", Trials: 20,
			DetectRate: 0.85, FalseVetoRate: 0, Damage: 0.8190113405886462, TwinDamage: 0.18875, MeanChecks: 106.5}},
	}
	for _, w := range append(want, slowLimitations...) {
		name := w.System + "/" + w.Attack + "/" + w.Profile
		if !w.quick {
			name += "/full"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			id := cellID(t, w.Cell)
			outs := make([]robustness.TrialOutcome, w.Trials)
			for rep := range outs {
				outs[rep] = robustness.RunTrial(id, robustness.AllProfiles, 1, rep, w.quick)
			}
			if got := robustness.Aggregate(id, robustness.AllProfiles, outs); got != w.Cell {
				t.Errorf("cell drifted:\n got %#v\nwant %#v", got, w.Cell)
			}
		})
	}
}

// slowLimitations holds the pinned cells too slow to run under -race;
// limitations_slow_test.go fills it in other builds.
var slowLimitations []limitation

// limitation is one pinned cell and the scale its trials run at.
type limitation struct {
	robustness.Cell
	quick bool
}

// cellID resolves a cell's names to its canonical matrix indices.
func cellID(t *testing.T, c robustness.Cell) robustness.CellID {
	t.Helper()
	sysIdx := slices.Index(robustness.SystemNames(), c.System)
	profIdx := slices.IndexFunc(robustness.AllProfiles, func(p robustness.Profile) bool { return p.Name == c.Profile })
	if sysIdx < 0 || profIdx < 0 {
		t.Fatalf("unknown system %q or profile %q", c.System, c.Profile)
	}
	atkIdx := slices.Index(robustness.Systems()[sysIdx].Attacks(), c.Attack)
	if atkIdx < 0 {
		t.Fatalf("system %s has no attack %q", c.System, c.Attack)
	}
	return robustness.CellID{SysIdx: sysIdx, AtkIdx: atkIdx, Guarded: c.Guarded, ProfIdx: profIdx}
}
