package supervisor

import (
	"fmt"

	"dui/internal/conntrack"
)

// TableObs is one sampling of conntrack table pressure.
type TableObs struct {
	Now      float64
	Len, Cap int
	// Rejected is the table's cumulative rejected-insertion counter.
	Rejected uint64
}

// ConntrackGuard is the §5 supervisor for stateful data-plane tables
// (SilkRoad-style conntrack): a table-pressure guard. A SYN flood of
// spoofed 5-tuples fills the table with entries that are touched once
// and never confirmed, evicting nothing until the idle timeout while
// legitimate connections lose the race for free slots. Dimensioned for
// the average case, the table normally idles far below capacity; the
// guard flags sustained near-capacity occupancy with active insertion
// rejections — pressure genuine workload growth produces gradually,
// not within seconds — and responds by sweeping probation entries
// (Table.SweepProbation): one-touch state older than a confirmation
// window is exactly what a spoofed SYN leaves behind.
type ConntrackGuard struct {
	cost         GuardCost
	lastRejected uint64
	streak       int
}

// The table-pressure guard's thresholds.
const (
	// tablePressureFrac is the occupancy fraction that counts as pressure.
	tablePressureFrac float64 = 0.9
	// pressureSteps is how many consecutive pressured observations make the
	// verdict implausible.
	pressureSteps int = 3
	// probationIdle is the one-touch idle age in seconds beyond which
	// the mitigation sweep evicts: longer than a legitimate keepalive
	// interval, far shorter than the idle timeout.
	probationIdle float64 = 0.6
)

var _ Guard[TableObs] = (*ConntrackGuard)(nil)

// Check implements Guard. Risk reaches the inclusive 0.5 veto threshold
// after pressureSteps consecutive pressured samples (near-full table with
// fresh insertion rejections).
func (g *ConntrackGuard) Check(o TableObs) Verdict {
	g.cost.Checks++
	pressured := float64(o.Len) >= tablePressureFrac*float64(o.Cap) && o.Rejected > g.lastRejected
	g.lastRejected = o.Rejected
	if pressured {
		g.streak++
	} else {
		g.streak = 0
	}
	risk := float64(g.streak) / float64(2*pressureSteps)
	if risk > 1 {
		risk = 1
	}
	v := Verdict{Risk: risk, Plausible: risk < 0.5}
	if v.Plausible {
		v.Reason = fmt.Sprintf("occupancy %d/%d within dimensioning", o.Len, o.Cap)
	} else {
		v.Reason = fmt.Sprintf("occupancy %d/%d with rejections for %d consecutive samples: state exhaustion", o.Len, o.Cap, g.streak)
		g.cost.Flags++
	}
	return v
}

// Cost implements Guard.
func (g *ConntrackGuard) Cost() GuardCost { return g.cost }

// StepHook returns a conntrack.ExhaustionConfig.Guard hook that checks
// the table every simulation step and, while the verdict is
// implausible, sweeps probation entries.
func (g *ConntrackGuard) StepHook() func(now float64, t *conntrack.Table) {
	return func(now float64, t *conntrack.Table) {
		v := g.Check(TableObs{Now: now, Len: t.Len(), Cap: t.Cap(), Rejected: t.Rejected})
		if !v.Plausible {
			t.SweepProbation(now, probationIdle)
		}
	}
}
