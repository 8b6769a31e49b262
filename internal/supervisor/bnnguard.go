package supervisor

import (
	"fmt"

	"dui/internal/bnn"
)

// BNNObs is one classification input presented to the in-network
// classifier.
type BNNObs struct {
	X bnn.Input
}

// BNNGuard is the §5 supervisor for the in-network BNN: an
// input-envelope check. The §3.2 attack crafts adversarial examples by
// greedily flipping the header bits the classifier reads; the perturbed
// inputs sit off the manifold the classifier was trained on. The guard
// keeps the training inputs and measures each arriving input's minimum
// Hamming distance to them: inputs within bnnMaxDist of some training
// sample are in-envelope, farther ones are flagged and — in the guarded
// deployment — not acted upon (fall back to the default treatment
// instead of the classifier's verdict). Legitimate traffic is drawn
// from the same distribution as the training set, so its distance stays
// small; an adversarial example must spend its flips moving away from
// exactly that neighborhood.
type BNNGuard struct {
	train []bnn.Input
	cost  GuardCost
}

// bnnMaxDist bounds the envelope: a sample at Hamming distance >=
// bnnMaxDist from every training input is flagged.
const bnnMaxDist int = 4

// NewBNNGuard builds the envelope from the deployed classifier's
// training inputs.
func NewBNNGuard(train []bnn.Input) *BNNGuard {
	return &BNNGuard{train: append([]bnn.Input(nil), train...)}
}

var _ Guard[BNNObs] = (*BNNGuard)(nil)

// Check implements Guard. Risk normalizes the distance so bnnMaxDist lands
// exactly on the inclusive 0.5 veto threshold.
func (g *BNNGuard) Check(o BNNObs) Verdict {
	g.cost.Checks++
	d := g.MinDist(o.X)
	risk := float64(d) / float64(2*bnnMaxDist)
	if risk > 1 {
		risk = 1
	}
	v := Verdict{Risk: risk, Plausible: risk < 0.5}
	if v.Plausible {
		v.Reason = fmt.Sprintf("input %d bit(s) from the training envelope", d)
	} else {
		v.Reason = fmt.Sprintf("input %d bits from any training sample: off-manifold", d)
		g.cost.Flags++
	}
	return v
}

// MinDist returns the minimum Hamming distance from x to the training
// set.
func (g *BNNGuard) MinDist(x bnn.Input) int {
	best := 64
	for _, t := range g.train {
		if d := bnn.Hamming(x, t); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	return best
}

// Cost implements Guard.
func (g *BNNGuard) Cost() GuardCost { return g.cost }
