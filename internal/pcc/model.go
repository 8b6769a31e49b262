package pcc

import "math"

// ForcedOscillation is the analytic form of the §4.2 claim. When a MitM
// ties every randomized controlled trial (u(+ε) == u(−ε)), Allegro's
// decision step is inconclusive by definition, so the controller stays at
// its base rate and escalates ε by εmin per round until the εmax = 5% cap.
// From then on every round still probes at rate·(1±εmax): the flow's
// sending rate oscillates within ±5% of base forever — "the attacker can
// cause PCC flows to fluctuate by ±5%, without allowing them to converge".
//
// It returns the ε value in effect at each decision round and the
// steady-state peak-to-peak relative rate amplitude (2·εmax).
func ForcedOscillation(epsMax float64, rounds int) (epsTrace []float64, amplitude float64) {
	if epsMax <= 0 {
		epsMax = 0.05
	}
	eps := epsMin
	for i := 0; i < rounds; i++ {
		epsTrace = append(epsTrace, eps)
		// Inconclusive round: stay, escalate.
		eps += epsMin
		if eps > epsMax {
			eps = epsMax
		}
	}
	return epsTrace, 2 * epsMax
}

// DestinationFluctuation computes the §4.2 fleet-level consequence: n
// flows toward one destination, each oscillating ±eps around its base
// rate. If the attacker synchronizes the trials (it controls the drop
// timing, so it can), the aggregate swings by ±eps of total volume; if the
// flows stay unsynchronized the swing shrinks toward ±eps/√n. Both bounds
// are returned as peak-to-peak fractions of aggregate volume.
func DestinationFluctuation(n int, eps float64) (synced, unsynced float64) {
	if n <= 0 {
		return 0, 0
	}
	synced = 2 * eps
	unsynced = 2 * eps / math.Sqrt(float64(n))
	return
}
