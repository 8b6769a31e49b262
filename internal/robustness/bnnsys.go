package robustness

import (
	"dui/internal/bnn"
	"dui/internal/stats"
	"dui/internal/supervisor"
)

// bnnSystem scores the in-network BNN (§3.2): attack "evade" runs the
// greedy bit-flip adversarial-example search against the deployed
// student classifier. The guarded arm wraps the classifier with
// supervisor.BNNGuard, the input-envelope check: traffic in this
// deployment clusters around a small set of protocol prototypes (the
// training distribution), so an input far (in Hamming distance) from
// every training sample is rejected before its classification is
// trusted. Adversarial examples must leave the envelope to cross the
// decision boundary; honest traffic, generated as prototype ± a couple
// of bit flips, stays inside it by construction — which is what makes
// the fault-free false-veto rate exactly zero.
//
// Damage under attack is the fraction of targeted inputs whose evasion
// succeeds (student decision flipped and, when guarded, the crafted
// input still passes the envelope); twin damage is the fraction of
// honest inputs not correctly serviced (misclassified against the
// teacher, or envelope-rejected when guarded). Detection is an alarm
// when more than 5% of the run's inputs fall out of envelope — a
// per-input guard needs a rate, not a single hit, to call a run
// attacked.
//
// Profile mapping (pure-model system): gray adds one extra random flip
// to honest inputs (noisy feature extraction — inputs drift toward the
// envelope edge, the documented gray bound); flap gives a 0.3·e burst
// fraction of inputs two extra flips (a protocol anomaly burst);
// degrade flips a 0.1·e fraction of the teacher labels the student is
// trained on (a degraded training pipeline — damage rises, the
// envelope is untouched).
type bnnSystem struct{}

func (bnnSystem) Name() string      { return "bnn" }
func (bnnSystem) Attacks() []string { return []string{"evade"} }

func (bnnSystem) Run(attack string, guarded bool, prof Profile, seed uint64, quick bool) TrialResult {
	const in, hidden, protos = 24, 16, 10
	mask := uint64(1)<<in - 1
	train, test := 300, 120
	if quick {
		train, test = 150, 60
	}
	e := prof.Intensity
	rng := stats.ChildAt(seed, 3700)

	prototypes := make([]bnn.Input, protos)
	for i := range prototypes {
		prototypes[i] = bnn.Input(rng.Uint64() & mask)
	}
	// sample draws prototype ± up to maxFlips random bit flips.
	sample := func(maxFlips int) bnn.Input {
		x := prototypes[rng.IntN(protos)]
		for f := rng.IntN(maxFlips + 1); f > 0; f-- {
			x ^= 1 << uint(rng.IntN(in))
		}
		return x
	}

	teacher := bnn.NewRandom(in, hidden, rng.Child())
	xs := make([]bnn.Input, 0, train)
	ys := make([]bool, 0, train)
	for i := 0; i < train; i++ {
		var x bnn.Input
		if i < protos {
			x = prototypes[i] // pure prototypes anchor the envelope
		} else {
			x = sample(2)
		}
		y := teacher.Classify(x)
		if prof.Name == "degrade" && rng.Bool(0.1*e) {
			y = !y // label noise from a degraded training pipeline
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	student := bnn.NewRandom(in, hidden, rng.Child())
	student.Train(xs, ys, 20)

	var g *supervisor.BNNGuard
	if guarded {
		// The envelope anchors on the prototypes alone, at distance 4:
		// honest inputs sit within 2 flips of a prototype (3 under gray
		// noise, 4 in a flap burst), so no profile pushes the honest
		// flagged fraction over the alarm threshold — the full training
		// set would cover adversarial examples with its members' own ±2
		// neighborhoods and weaken the check.
		g = supervisor.NewBNNGuard(xs[:protos])
	}

	flagged, total := 0, 0
	inEnvelope := func(x bnn.Input) bool {
		total++
		if g.Check(supervisor.BNNObs{X: x}).Plausible {
			return true
		}
		flagged++
		return false
	}

	bad, targets := 0, 0
	for i := 0; i < test; i++ {
		maxFlips := 2
		if prof.Name == "flap" && rng.Bool(0.3*e) {
			maxFlips = 4 // burst anomaly: two extra flips
		}
		x := sample(maxFlips)
		if prof.Name == "gray" && rng.Bool(e) {
			x ^= 1 << uint(rng.IntN(in)) // noisy feature extraction
		}
		truth := teacher.Classify(x)
		if attack == "evade" {
			if student.Classify(x) != truth {
				continue // the attacker targets correctly-handled inputs
			}
			targets++
			adv, ok := bnn.AdversarialExample(student, x, mask, 8)
			if !ok {
				continue
			}
			if g == nil || inEnvelope(adv) {
				bad++
			}
		} else {
			targets++
			ok := student.Classify(x) == truth
			if g != nil && !inEnvelope(x) {
				ok = false // honest input rejected by the envelope
			}
			if !ok {
				bad++
			}
		}
	}

	out := TrialResult{}
	if targets > 0 {
		out.Damage = float64(bad) / float64(targets)
	}
	if g != nil {
		out.Checks = g.Cost().Checks
		out.Detected = total > 0 && float64(flagged)/float64(total) > 0.05
	}
	return out
}
