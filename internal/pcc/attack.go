package pcc

import (
	"sort"

	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
)

// Equalizer is the §4.2 MitM attack: a link tap that tracks each PCC
// flow's sending rate, recognizes the faster (1+ε) trials of the
// randomized controlled experiment from their packet spacing, and drops
// exactly enough of their packets that the measured utility ties with the
// slower trial. Every trial becomes inconclusive, ε escalates to the 5%
// cap, and the flow oscillates without converging — "not only is PCC's
// logic neutralized, it is effectively a tool for the attacker".
//
// The attacker needs no protocol cooperation: rate and monitor-interval
// boundaries are inferred from packet timing ("easy to track in the data
// plane"), and the utility function is public (Kerckhoff).
type Equalizer struct {
	// Util is the utility the victim optimizes (known to the attacker).
	Util Utility
	// Sel restricts the attack to matching packets (nil = all TCP data).
	Sel func(*packet.Packet) bool
	// DetectMargin is the relative rate excess over baseline treated as
	// a fast trial (default 0.4%: below the ε_min=1% trial amplitude,
	// above pacing noise).
	DetectMargin float64
	// ExtraDrop is the loss margin added on top of the exact equalizing
	// drop so the punished fast trial lands decisively below its slow
	// counterpart (default 0.03). Smaller margins cost less budget but
	// risk ties resolving in the victim's favor — the knob the cost
	// search in internal/advsearch explores.
	ExtraDrop float64
	// ActiveFrom delays the attack: packets before this time pass
	// untouched (0 = attack from the start). Phase tracking still runs so
	// the base-rate estimate is warm when the attack engages.
	ActiveFrom float64

	rng   *stats.RNG
	flows map[packet.FlowKey]*eqFlow

	// Stats: attack budget accounting.
	Seen, Dropped uint64

	// DebugClassify, if set, observes each phase classification (test
	// diagnostics).
	DebugClassify func(now, rate, base float64, kind string, sinceBase int)
}

// eqFlow tracks one victim flow. PCC paces uniformly within a monitor
// interval, so packet spacing is piecewise constant: a change in spacing
// marks an MI boundary. The attacker segments arrivals into phases and
// keeps a ring of recent phase rates; the median phase rate is the flow's
// base rate r, against which the current phase is classified.
type eqFlow struct {
	prev     float64 // last arrival time
	havePrev bool
	curRate  float64 // running mean rate of the current phase
	curCount int
	phases   []float64 // ring of completed phase rates
	phasePos int
	sorted   []float64 // medianPhase scratch: phases ascending
	centers  []float64 // medianPhase scratch: level centers
	// Punishment of fast phases: exactly one of the two (1+ε) trials in
	// each 4-MI decision round is degraded below its (1−ε) counterpart
	// while the other passes untouched, so the round is inconclusive *by
	// construction* (never "both pairs agree") and ε escalates
	// deterministically to the cap. Rounds are delimited by base-rate
	// phases (PCC fills with base-rate MIs between rounds), so the rule
	// is: punish the first fast phase after each base-rate phase.
	sinceBase  int
	confirmed  bool // spacing confirmed by a second packet
	classified bool // punish decision taken for this phase
	punishCur  bool
	credit     float64 // deterministic drop accumulator
}

const eqPhases = 12

// NewEqualizer returns an equalizer attack using the given utility model.
func NewEqualizer(u Utility, rng *stats.RNG) *Equalizer {
	return &Equalizer{
		Util:         u,
		DetectMargin: 0.004,
		ExtraDrop:    0.03,
		rng:          rng,
		flows:        map[packet.FlowKey]*eqFlow{},
	}
}

// DropFraction returns the fraction of observed packets the attack
// dropped — the paper's point that "tampering with only a small fraction
// of traffic" suffices.
func (e *Equalizer) DropFraction() float64 {
	if e.Seen == 0 {
		return 0
	}
	return float64(e.Dropped) / float64(e.Seen)
}

// Intercept implements netsim.Tap.
func (e *Equalizer) Intercept(now float64, p *packet.Packet, dir netsim.Direction) netsim.TapVerdict {
	if p.TCP == nil || p.Size <= 60 {
		return netsim.TapVerdict{} // ignore the echo/ack direction
	}
	if e.Sel != nil && !e.Sel(p) {
		return netsim.TapVerdict{}
	}
	k := p.Flow()
	f := e.flows[k]
	if f == nil {
		f = &eqFlow{}
		e.flows[k] = f
	}
	e.Seen++
	if !f.havePrev {
		f.prev = now
		f.havePrev = true
		return netsim.TapVerdict{}
	}
	gap := now - f.prev
	f.prev = now
	if gap <= 0 {
		return netsim.TapVerdict{}
	}
	inst := 1 / gap
	// Segment into phases: a spacing change beyond the margin is an MI
	// boundary (PCC paces uniformly within an MI). The first packet of a
	// phase is never acted on: MI-boundary gaps produce one-packet
	// artifacts whose rate is meaningless; a phase is classified once a
	// second packet confirms its spacing.
	switch {
	case f.curCount == 0:
		f.curRate, f.curCount = inst, 1
		f.confirmed, f.classified, f.punishCur = false, false, false
	case abs(inst-f.curRate)/f.curRate > e.DetectMargin:
		if f.confirmed {
			f.pushPhase(f.curRate)
		}
		f.curRate, f.curCount = inst, 1
		f.confirmed, f.classified, f.punishCur = false, false, false
	default:
		f.curRate = (f.curRate*float64(f.curCount) + inst) / float64(f.curCount+1)
		f.curCount++
		f.confirmed = true
	}
	base := f.medianPhase()
	if base == 0 {
		return netsim.TapVerdict{}
	}
	if f.confirmed && !f.classified {
		f.classified = true
		kind := "slow"
		switch {
		case f.curRate > base*(1+e.DetectMargin):
			// A fast phase: a (1+ε) trial, an adjusting step, or a
			// startup doubling. Punish the first one of each round so
			// startup stalls immediately and every decision round has
			// exactly one degraded up-trial.
			f.sinceBase++
			f.punishCur = f.sinceBase == 1
			kind = "fast"
		case f.curRate > base*(1-e.DetectMargin):
			// A base-rate phase (filler between rounds): new round.
			f.sinceBase = 0
			kind = "base"
		}
		if e.DebugClassify != nil {
			e.DebugClassify(now, f.curRate, base, kind, f.sinceBase)
		}
	}
	if !f.punishCur || now < e.ActiveFrom {
		return netsim.TapVerdict{}
	}
	// Degrade the punished fast phase decisively below its slow
	// counterpart: the equalizing drop plus a margin. Loss stays in the
	// single-digit percent range — small, targeted tampering. Drops are
	// credit-scheduled (deterministic) rather than Bernoulli so the
	// induced loss has minimal variance: the optimal attacker leaves
	// nothing to chance.
	ratio := f.curRate / base
	slow := 2 - ratio
	if slow < 0.5 {
		slow = 0.5
	}
	drop := EqualizingDrop(e.Util, ratio, slow, 0) + e.ExtraDrop
	f.credit += drop
	if f.credit >= 1 {
		f.credit--
		e.Dropped++
		return netsim.TapVerdict{Drop: true}
	}
	return netsim.TapVerdict{}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (f *eqFlow) pushPhase(r float64) {
	if len(f.phases) < eqPhases {
		f.phases = append(f.phases, r)
		return
	}
	f.phases[f.phasePos] = r
	f.phasePos = (f.phasePos + 1) % eqPhases
}

// medianPhase estimates the flow's base rate from the recent phase rates.
// A plain median fails once trial and adjusting phases outnumber base-rate
// fillers, so the rates are clustered into levels (0.5% tolerance) first:
// PCC's trials sit symmetrically around the base rate, so the middle level
// is the base; during startup (two levels: base and double) the lower one
// is.
func (f *eqFlow) medianPhase() float64 {
	if len(f.phases) == 0 {
		return 0
	}
	tmp := append(f.sorted[:0], f.phases...)
	sort.Float64s(tmp)
	f.sorted = tmp
	centers := f.centers[:0]
	var sum float64
	var n int
	for i, r := range tmp {
		if n > 0 && r > (sum/float64(n))*1.005 {
			centers = append(centers, sum/float64(n))
			sum, n = 0, 0
		}
		sum += r
		n++
		if i == len(tmp)-1 {
			centers = append(centers, sum/float64(n))
		}
	}
	f.centers = centers
	switch len(centers) {
	case 1:
		return centers[0]
	case 2:
		return centers[0]
	default:
		return centers[len(centers)/2]
	}
}
