package supervisor

import (
	"fmt"

	"dui/internal/pcc"
)

// PCCGuard is the §5 input-quality check for PCC: "monitor when packets
// are dropped in every +ε or −ε phase". Natural congestion loss
// correlates only weakly with a ±5% rate difference, so loss that lands
// almost exclusively in the (1+ε) trials is the signature of the
// equalizer MitM.
//
// One observation is one flow's monitor-interval history. Per Fig 3, the
// driver reports its state to the supervisor, so the check uses the
// driver's own trial labels: it compares the loss observed in "up"
// trials against "down" trials and base-rate fillers. Startup doublings
// and adjusting excursions are excluded — their (genuine) congestion
// loss says nothing about tampering.
type PCCGuard struct {
	cost GuardCost
}

var _ Guard[[]pcc.MIRecord] = (*PCCGuard)(nil)

// Check implements Guard; records is one flow's monitor-interval history.
func (g *PCCGuard) Check(records []pcc.MIRecord) Verdict {
	g.cost.Checks++
	if len(records) < 12 {
		return Verdict{Plausible: true, Reason: "insufficient history"}
	}
	const lossy = 0.02 // an MI with >=2% loss counts as a loss event
	var fastN, fastLossy, slowN, slowLossy int
	for _, r := range records {
		switch r.Role {
		case "up", "adjust":
			// Both are small upward rate excursions (1+ε steps); under
			// the equalizer they absorb the targeted drops.
			fastN++
			if r.Loss >= lossy {
				fastLossy++
			}
		case "down", "filler":
			slowN++
			if r.Loss >= lossy {
				slowLossy++
			}
		}
	}
	if fastN == 0 || slowN == 0 {
		return Verdict{Plausible: true, Reason: "no rate experiments observed"}
	}
	fFast := float64(fastLossy) / float64(fastN)
	fSlow := float64(slowLossy) / float64(slowN)
	// Natural congestion hits ±ε excursions and the base rate alike (the
	// rates differ by a few percent); loss events that occur *only* on
	// upward excursions are the equalizer's signature.
	risk := (fFast - fSlow) / 0.10
	if risk < 0 {
		risk = 0
	}
	if risk > 1 {
		risk = 1
	}
	v := Verdict{Risk: risk, Plausible: risk < 0.5}
	v.Reason = fmt.Sprintf("loss events in %.0f%% of fast trials vs %.0f%% of slow/base MIs", 100*fFast, 100*fSlow)
	if !v.Plausible {
		g.cost.Flags++
	}
	return v
}

// Cost implements Guard.
func (g *PCCGuard) Cost() GuardCost { return g.cost }

// EpsRange is countermeasure III applied to PCC: the supervisor grants
// the driver a bounded trial amplitude, which directly caps the
// oscillation an equalizer attacker can force (±εmax by construction; see
// pcc.ForcedOscillation). The trade-off: a smaller range also slows
// legitimate convergence.
func EpsRange(maxEps float64) Range { return Range{Min: 0.001, Max: maxEps} }

// ClampedPCCConfig returns cfg with the ε bounds restricted to the range.
func ClampedPCCConfig(cfg pcc.Config, r Range) pcc.Config {
	cfg.EpsMin = r.Clamp(cfg.EpsMin)
	cfg.EpsMax = r.Clamp(cfg.EpsMax)
	return cfg
}
