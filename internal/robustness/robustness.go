// Package robustness is the full defense × attack × fault evaluation
// matrix over the nine §3.2/§4 case-study systems. The defense-survey
// literature's lesson (see PAPERS.md) is that per-attack anecdotes
// mislead: a guard is only as good as its behaviour across the whole
// matrix of (system, attack, guard-on/off, benign-fault profile) cells,
// scored with one common metric.
//
// Each cell runs the twin-run pattern of the campaign chaos kind, per trial:
// one run under the attack and one attack-free twin at the same seed,
// both under the cell's benign-fault profile. From the pair the cell
// aggregates
//
//   - DetectRate — fraction of attacked runs the guard flagged,
//   - FalseVetoRate — fraction of attack-free twins the guard flagged
//     (must be 0 at fault intensity 0; gray-failure bounds are
//     documented per guard),
//   - Damage — the system's normalized damage metric under attack
//     (each harness documents its own; all are "higher is worse" in
//     [0, 1]),
//   - TwinDamage — the same metric on the attack-free twin (the cost
//     of running the guard under benign degradation),
//   - MeanChecks — guard observations per run (cost accounting).
//
// Everything is a pure function of (canonical spec, seed): trial seeds
// are derived via stats.PathSeed off the root seed with a
// robustness-owned purpose tag and never depend on worker count, shard
// split, or guard arm, so attacked run and twin — and guard-on and
// guard-off arms — of one rep share their base randomness and the
// aggregated matrix is bit-identical however it is scheduled.
//
// A system whose attacks can be searched adaptively also implements
// Searchable: each attack spans a knob space in which the named attack
// is one point, and Run is RunKnobs at that point. SearchTarget adapts
// such a deployment to an internal/advsearch Target, so the attack
// search probes the very deployments the matrix scores (Blink, Pytheas
// and PCC today).
package robustness

import "fmt"

// axTrial is the package's PathSeed purpose tag (see the axis-namespace
// note on stats.ChildAt); trial seeds derive as
// PathSeed(root, axTrial, sysIdx, atkIdx, profIdx, rep).
const axTrial = 0xB0B

// Profile is one benign-fault environment applied to both runs of a
// trial. Intensity scales every fault channel in [0, 1]; how a named
// profile maps onto a system's benign channels is documented per
// harness (netsim-backed systems install internal/faults plans;
// pure-model systems map Intensity onto their own noise knobs).
type Profile struct {
	Name      string  `json:"name"`
	Intensity float64 `json:"intensity"`
}

// AllProfiles is the default profile set: the fault-free baseline plus
// the three benign degradation families of internal/faults.
var AllProfiles = []Profile{
	{Name: "none", Intensity: 0},
	{Name: "gray", Intensity: 0.5},
	{Name: "flap", Intensity: 0.5},
	{Name: "degrade", Intensity: 0.5},
}

// Profiles resolves profile names (nil/empty = AllProfiles).
func Profiles(names []string) ([]Profile, error) {
	if len(names) == 0 {
		return AllProfiles, nil
	}
	out := make([]Profile, 0, len(names))
	for _, n := range names {
		found := false
		for _, p := range AllProfiles {
			if p.Name == n {
				out = append(out, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("robustness: unknown fault profile %q", n)
		}
	}
	return out, nil
}

// TrialResult is one run's contribution to a cell.
type TrialResult struct {
	// Detected reports whether the guard flagged the run (always false
	// with the guard off).
	Detected bool
	// Checks counts guard observations (cost; 0 with the guard off).
	Checks int
	// Damage is the harness's normalized damage metric in [0, 1].
	Damage float64
	// Cost is the attacker's spend (0 on the twin); a Searchable
	// documents its unit. The adaptive search minimizes it; the matrix
	// does not journal it.
	Cost float64
}

// System is one case-study harness.
type System interface {
	// Name returns the system's canonical name.
	Name() string
	// Attacks lists the attack variants (the attack-free twin is
	// implied, not listed).
	Attacks() []string
	// Run executes one run: attack "" is the attack-free twin. All
	// randomness derives from seed; quick selects a reduced
	// configuration for smoke tests.
	Run(attack string, guarded bool, prof Profile, seed uint64, quick bool) TrialResult
}

// Systems returns the full harness registry in canonical matrix order.
func Systems() []System {
	return []System{
		blinkSystem{}, pytheasSystem{}, pccSystem{},
		sppifoSystem{}, sketchSystem{}, ronSystem{},
		conntrackSystem{}, dapperSystem{}, bnnSystem{},
	}
}

// SystemNames returns the canonical name list.
func SystemNames() []string {
	var out []string
	for _, s := range Systems() {
		out = append(out, s.Name())
	}
	return out
}

// Select resolves system names to harnesses in canonical order
// (nil/empty = all). Unknown names are an error.
func Select(names []string) ([]System, error) {
	all := Systems()
	if len(names) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range names {
		found := false
		for _, s := range all {
			if s.Name() == n {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("robustness: unknown system %q", n)
		}
		want[n] = true
	}
	var out []System
	for _, s := range all {
		if want[s.Name()] {
			out = append(out, s)
		}
	}
	return out, nil
}

// Cell identifies and scores one matrix cell.
type Cell struct {
	System  string `json:"system"`
	Attack  string `json:"attack"`
	Guarded bool   `json:"guarded"`
	Profile string `json:"profile"`
	Trials  int    `json:"trials"`
	// DetectRate is the fraction of attacked runs the guard flagged.
	DetectRate float64 `json:"detect_rate"`
	// FalseVetoRate is the fraction of attack-free twins the guard
	// flagged.
	FalseVetoRate float64 `json:"false_veto_rate"`
	// Damage / TwinDamage are mean normalized damage under attack and
	// on the twin.
	Damage     float64 `json:"damage"`
	TwinDamage float64 `json:"twin_damage"`
	// MeanChecks is the mean guard observation count per run (attacked
	// and twin runs both counted).
	MeanChecks float64 `json:"mean_checks"`
}

// CellID enumerates the matrix's cell axes for one spec: systems ×
// their attacks × guard off/on × profiles, in canonical order. The
// enumeration order IS the trial numbering contract the campaign kind
// relies on, so it must never depend on anything but the spec.
type CellID struct {
	SysIdx  int // index into the canonical Systems() registry
	AtkIdx  int // index into the system's Attacks()
	Guarded bool
	ProfIdx int // index into the resolved profile list
}

// EnumerateCells expands the cell axes for the selected systems and
// profiles.
func EnumerateCells(systems []System, profiles []Profile) []CellID {
	all := Systems()
	canon := map[string]int{}
	for i, s := range all {
		canon[s.Name()] = i
	}
	var out []CellID
	for _, s := range systems {
		for a := range s.Attacks() {
			for _, guarded := range []bool{false, true} {
				for p := range profiles {
					out = append(out, CellID{SysIdx: canon[s.Name()], AtkIdx: a, Guarded: guarded, ProfIdx: p})
				}
			}
		}
	}
	return out
}
