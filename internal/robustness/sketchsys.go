package robustness

import (
	"slices"
	"sync"

	"dui/internal/sketch"
	"dui/internal/stats"
	"dui/internal/supervisor"
)

// sketchSystem scores FlowRadar (§3.2): attack "pollution" crafts a
// stopping set over the public (unkeyed) hash table so the peeling
// decoder can never start on the crafted cells — the attacker's traffic
// becomes invisible to monitoring; attack "hide" additionally anchors
// the blind spot onto one chosen victim flow. The guarded arm runs the
// salted shadow-table cross-validation (supervisor.SketchGuard): a
// secret-salt twin of the table over the same traffic with a
// residue-imbalance veto — crafted labels collide in the public table
// but behave as random under the salt, so a large primary-vs-shadow
// residue gap is the attack signature, and a flagged operator decodes
// from the shadow instead.
//
// Damage: for "pollution" (and the twin), the fraction of present flows
// missing from the operative decode — the monitoring blind spot; for
// "hide", whether the victim flow is missing (the attack's own goal).
// The operative table is the primary, or the shadow when the guard
// flags.
//
// Profile mapping (pure-model system): gray adds diffuse extra benign
// flows plus duplicate packets (harmless to the flow encoding, which
// counts a flow once); flap adds a burst of short-lived benign flows;
// degrade shrinks both tables (less SRAM), raising load — and residue —
// on primary and shadow alike, which the imbalance check must not read
// as an attack.
type sketchSystem struct{}

func (sketchSystem) Name() string      { return "sketch" }
func (sketchSystem) Attacks() []string { return []string{"pollution", "hide"} }

func (sketchSystem) Run(attack string, guarded bool, prof Profile, seed uint64, quick bool) TrialResult {
	m, k, legit := 1024, 3, 300
	if quick {
		m, legit = 512, 150
	}
	e := prof.Intensity
	if prof.Name == "degrade" {
		m = int(float64(m) * (1 - 0.4*e))
	}
	rng := stats.ChildAt(seed, 3400)

	// Legitimate flows (random labels), plus the profile's benign extras.
	extra := 0
	switch prof.Name {
	case "gray":
		extra = int(float64(legit) * 0.6 * e)
	case "flap":
		extra = int(float64(legit) * 0.5 * e)
	}
	flows := make([]sketch.FlowID, 0, legit+extra)
	for i := 0; i < legit+extra; i++ {
		flows = append(flows, sketch.FlowID(rng.Uint64()))
	}

	// The attacker crafts against the public table; she cannot see the
	// shadow's salt. The label search is deterministic.
	var crafted []sketch.FlowID
	victim := flows[0]
	switch attack {
	case "pollution":
		n := 120
		if quick {
			n = 60
		}
		crafted = pollutingFlows(m, k, n)
	case "hide":
		crafted = slices.Concat(pollutingFlows(m, k, 80),
			sketch.CraftTargetedHiders(m, k, victim, 0.1, 2, 1<<41))
	}

	primary := sketch.New(m, k)
	shadow := sketch.NewSalted(m, k, stats.PathSeed(seed, 3401))
	addAll := func(t *sketch.FlowRadar) {
		dupRNG := stats.ChildAt(seed, 3402)
		for _, f := range flows {
			t.Add(f)
			if prof.Name == "gray" && dupRNG.Bool(0.3*e) {
				t.Add(f) // duplicated packet (benign gray failure)
			}
		}
		for _, f := range crafted {
			t.Add(f)
		}
	}
	addAll(primary)
	addAll(shadow)

	decP := primary.Decode()
	out := TrialResult{}
	operative := decP
	if guarded {
		g := &supervisor.SketchGuard{}
		decS := shadow.Decode()
		v := g.Check(supervisor.SketchObs{
			M:              m,
			PrimaryResidue: decP.Residue,
			ShadowResidue:  decS.Residue,
		})
		c := g.Cost()
		out.Detected = !v.Plausible
		out.Checks = c.Checks
		if out.Detected {
			operative = decS
		}
	}

	if attack == "hide" {
		if _, ok := operative.Flows[victim]; !ok {
			out.Damage = 1
		}
	} else {
		total := len(flows) + len(crafted)
		missing := total - len(operative.Flows)
		if missing < 0 {
			missing = 0
		}
		out.Damage = float64(missing) / float64(total)
	}
	return out
}

// craftCache memoizes pollutingFlows by [3]int{m, k, n}.
var craftCache sync.Map

// pollutingFlows is sketch.CraftPollutingFlows(m, k, n, 0.1, 1<<40), a
// pure function of (m, k, n) that every trial of a cell would otherwise
// repeat. Trials run concurrently and share the returned slice, so
// callers must not modify it or append to it.
func pollutingFlows(m, k, n int) []sketch.FlowID {
	key := [3]int{m, k, n}
	if v, ok := craftCache.Load(key); ok {
		return v.([]sketch.FlowID)
	}
	v, _ := craftCache.LoadOrStore(key, sketch.CraftPollutingFlows(m, k, n, 0.1, 1<<40))
	return v.([]sketch.FlowID)
}
