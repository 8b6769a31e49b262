//go:build !race

package robustness_test

import "dui/internal/robustness"

// The full-scale PCC cell runs 20 twin pairs of ~0.3 s each, too slow
// under the race detector.
func init() {
	slowLimitations = append(slowLimitations, limitation{Cell: robustness.Cell{
		System: "pcc", Attack: "equalizer", Guarded: true, Profile: "gray", Trials: 20,
		DetectRate: 0, FalseVetoRate: 0.1, Damage: 0.06588214944113893, TwinDamage: 0.009905084745762715, MeanChecks: 1,
	}})
}
