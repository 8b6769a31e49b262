package supervisor

import (
	"fmt"
	"math"

	"dui/internal/stats"
)

// PytheasGuard is the §5 Pytheas countermeasure as a detector: "look at
// the distribution of throughput across all clients in a group. If only
// a few clients exhibit low throughput while others exhibit high
// throughput, this is indicative of either groups being ill-formed or
// malicious inputs from part of the group population."
//
// One observation is one epoch's window of QoE reports. The guard
// measures the fraction of reports deviating more than K MADs from the
// group median. A benign group is unimodal (tiny outlier fraction); a
// poisoned or ill-formed group shows a coherent deviating minority.
type PytheasGuard struct {
	// K is the MAD multiplier (<= 0 = 4).
	K float64

	cost GuardCost
}

var _ Guard[[]float64] = (*PytheasGuard)(nil)

// Check implements Guard; reports is one epoch's report window.
func (g *PytheasGuard) Check(reports []float64) Verdict {
	g.cost.Checks++
	if len(reports) < 20 {
		return Verdict{Plausible: true, Reason: "insufficient reports"}
	}
	k := g.K
	if k <= 0 {
		k = 4
	}
	med := stats.Median(reports)
	mad := stats.MAD(reports)
	if mad == 0 {
		mad = 1e-9
	}
	outliers := 0
	for _, r := range reports {
		if math.Abs(r-med) > k*mad {
			outliers++
		}
	}
	frac := float64(outliers) / float64(len(reports))
	// A few percent of outliers is normal measurement noise; a coherent
	// 10%+ block is not.
	risk := frac / 0.2
	if risk > 1 {
		risk = 1
	}
	v := Verdict{Risk: risk, Plausible: risk < 0.5}
	v.Reason = fmt.Sprintf("%.1f%% of reports deviate >%.0f MADs from the group median", 100*frac, k)
	if !v.Plausible {
		g.cost.Flags++
	}
	return v
}

// Cost implements Guard.
func (g *PytheasGuard) Cost() GuardCost { return g.cost }
