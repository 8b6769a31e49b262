package supervisor

import "fmt"

// SketchObs summarizes one decode epoch of a paired-sketch deployment:
// the operator runs the public-hash primary table next to a shadow
// table keyed with a secret salt (sketch.NewSalted) over the same
// traffic. Residue is each decoder's count of undecodable cells.
type SketchObs struct {
	// M is the per-table cell count (the normalizer).
	M              int
	PrimaryResidue int
	ShadowResidue  int
}

// SketchGuard is the §5 supervisor for FlowRadar/LossRadar:
// cross-validation between the public-hash table and a salted shadow.
// The §3.2 pollution attack crafts flow labels that collide in the
// public hash, destroying the primary's pure cells; against the salted
// shadow the same labels behave like random traffic and decode cleanly.
// Benign overload (too many genuine flows, gray-failure loss storms)
// hits both tables alike. The guard therefore scores the *imbalance*
// between the residues: high primary residue with a clean shadow is the
// attack signature; matched residues — however high — are load.
type SketchGuard struct {
	// MaxImbalance is the residue-imbalance fraction (of M) at which
	// the verdict goes implausible (<= 0 = 0.04).
	MaxImbalance float64

	cost GuardCost
}

var _ Guard[SketchObs] = (*SketchGuard)(nil)

// Check implements Guard. Risk normalizes the imbalance so MaxImbalance
// lands on the inclusive 0.5 veto threshold. A table with no cells
// (M <= 0) holds no residue to compare: plausible, risk 0.
func (g *SketchGuard) Check(o SketchObs) Verdict {
	max := g.MaxImbalance
	if max <= 0 {
		max = 0.04
	}
	g.cost.Checks++
	if o.M <= 0 {
		return Verdict{Plausible: true, Risk: 0, Reason: "empty table: no residue to compare"}
	}
	imb := float64(o.PrimaryResidue-o.ShadowResidue) / float64(o.M)
	if imb < 0 {
		imb = 0
	}
	risk := imb / (2 * max)
	if risk > 1 {
		risk = 1
	}
	v := Verdict{Risk: risk, Plausible: risk < 0.5}
	if v.Plausible {
		v.Reason = fmt.Sprintf("residue imbalance %.1f%% of cells: decoders agree", 100*imb)
	} else {
		v.Reason = fmt.Sprintf("residue imbalance %.1f%% of cells: labels collide only under the public hash", 100*imb)
		g.cost.Flags++
	}
	return v
}

// Cost implements Guard.
func (g *SketchGuard) Cost() GuardCost { return g.cost }
