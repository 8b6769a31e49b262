package nethide

import (
	"context"

	"dui/internal/graph"
	"dui/internal/runner"
	"dui/internal/stats"
)

// SweepRow is one density cap evaluated by SweepCaps: the obfuscation
// quality metrics at that cap and the link-flooding attacker's residual
// success when planning on the resulting virtual topology.
type SweepRow struct {
	Cap           int
	Metrics       Metrics
	AttackSuccess float64
}

// SweepCaps runs the NetHide obfuscation search at each density cap on
// the parallel trial runner (workers = 0 means GOMAXPROCS) and evaluates
// the attacker against each virtual topology. Cap k's search draws from
// stats.ChildAt(seed, k), so rows are identical at any worker count. The
// graph is shared read-only across trials; the search never mutates it.
func SweepCaps(g *graph.Graph, pairs []Pair, caps []int, cfg Config, seed uint64, workers int) []SweepRow {
	phys := ShortestPaths(g, pairs)
	rows, _ := runner.Map(context.Background(), caps, seed, runner.Config{Workers: workers},
		func(_ context.Context, t runner.Trial, cap int) (SweepRow, error) {
			c := cfg
			c.DensityCap = cap
			virt, m := Obfuscate(g, pairs, c, stats.ChildAt(seed, uint64(t.Index)))
			atk := EvaluateAttack(phys, Survey(virt, pairs))
			return SweepRow{Cap: cap, Metrics: m, AttackSuccess: atk.Success}, nil
		})
	return rows
}
