package campaign

import (
	"context"
	"encoding/json"
	"fmt"

	"dui/internal/robustness"
)

// RobustnessResult is the canonical result of a robustness-matrix job:
// every cell of the (system, attack, guard arm, fault profile) matrix
// in canonical enumeration order.
type RobustnessResult struct {
	Kind     string            `json:"kind"`
	Trials   int               `json:"trials"`
	RootSeed uint64            `json:"root_seed"`
	Quick    bool              `json:"quick,omitempty"`
	Systems  []string          `json:"systems"`
	Profiles []string          `json:"profiles"`
	Cells    []robustness.Cell `json:"cells"`
}

// robustnessAxes resolves a canonical spec's cell enumeration. Canon has
// already validated the names, so resolution cannot fail.
func robustnessAxes(r *RobustnessSpec) ([]robustness.CellID, []robustness.Profile) {
	systems, err := robustness.Select(r.Systems)
	if err != nil {
		panic("campaign: robustness axes on unvalidated spec: " + err.Error())
	}
	profiles, err := robustness.Profiles(r.Profiles)
	if err != nil {
		panic("campaign: robustness axes on unvalidated spec: " + err.Error())
	}
	return robustness.EnumerateCells(systems, profiles), profiles
}

// Trial numbering: cell-major, rep-minor — trial t is rep t%Trials of
// cell t/Trials. Each trial runs the cell's attacked run plus its
// attack-free twin; the seed comes from robustness.TrialSeed (which
// excludes the guard arm, so the two arms of a rep share randomness)
// rather than the runner's linear seed expansion.
var robustnessOps = ops{
	total: func(s JobSpec) int {
		cells, _ := robustnessAxes(s.Robustness)
		return len(cells) * s.Robustness.Trials
	},
	runOne: func(s JobSpec, _, trial int, _ uint64) (json.RawMessage, error) {
		r := s.Robustness
		cells, profiles := robustnessAxes(r)
		out := robustness.RunTrial(cells[trial/r.Trials], profiles, r.RootSeed, trial%r.Trials, r.Quick)
		return json.Marshal(out)
	},
	assemble: func(_ context.Context, s JobSpec, outs [][]byte) (any, error) {
		r := s.Robustness
		cells, profiles := robustnessAxes(r)
		res := RobustnessResult{
			Kind: KindRobustness, Trials: r.Trials, RootSeed: r.RootSeed, Quick: r.Quick,
			Systems: r.Systems, Profiles: r.Profiles,
		}
		for ci, cell := range cells {
			reps := make([]robustness.TrialOutcome, r.Trials)
			for rep := 0; rep < r.Trials; rep++ {
				if err := json.Unmarshal(outs[ci*r.Trials+rep], &reps[rep]); err != nil {
					return nil, fmt.Errorf("campaign: robustness trial %d: corrupt record: %v", ci*r.Trials+rep, err)
				}
			}
			res.Cells = append(res.Cells, robustness.Aggregate(cell, profiles, reps))
		}
		return res, nil
	},
}
