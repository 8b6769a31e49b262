package robustness_test

import (
	"testing"

	"dui/internal/robustness"
)

// falseVetoSeeds is the seed panel for the false-veto sweeps. Small on
// purpose: each seed runs every system's guarded twin, and the bound
// being tested is "zero", not a rate estimate.
var falseVetoSeeds = []uint64{1, 12345}

// TestNoFalseVetoFaultFree: the load-bearing promise of every guard in
// the matrix — on an attack-free, fault-free run, the guard must stay
// silent and must not change the system's outcome. A guard that flags
// clean traffic is worse than no guard; a guard that silently perturbs
// the system it watches corrupts the guard-off/guard-on comparison the
// whole matrix is built on.
func TestNoFalseVetoFaultFree(t *testing.T) {
	none := robustness.Profile{Name: "none", Intensity: 0}
	for _, sys := range robustness.Systems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range falseVetoSeeds {
				off := sys.Run("", false, none, seed, true)
				on := sys.Run("", true, none, seed, true)
				if on.Detected {
					t.Errorf("seed %d: guard flagged the clean attack-free twin", seed)
				}
				if on.Damage != off.Damage {
					t.Errorf("seed %d: guard changed clean twin damage %.3f -> %.3f", seed, off.Damage, on.Damage)
				}
				if on.Checks == 0 {
					t.Errorf("seed %d: guarded twin reports zero checks — guard not wired into the harness", seed)
				}
			}
		})
	}
}

// TestFalseVetoBoundUnderFaults sweeps the guarded attack-free twin
// under every benign degradation profile. The documented bound: no
// guard false-vetoes under gray loss, link flapping, or sustained
// degradation — except the Dapper guard under gray, whose
// instant-duplicate channel cannot tell fault-injected duplicates from
// attacker-injected ones (the flag costs nothing there: Dapper's
// diagnosis damage stays at its unguarded value; see dapperSystem).
func TestFalseVetoBoundUnderFaults(t *testing.T) {
	for _, prof := range robustness.AllProfiles {
		if prof.Intensity == 0 {
			continue
		}
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			for _, sys := range robustness.Systems() {
				if sys.Name() == "dapper" && prof.Name == "gray" {
					continue // documented exception, see the test comment
				}
				for _, seed := range falseVetoSeeds {
					if on := sys.Run("", true, prof, seed, true); on.Detected {
						t.Errorf("%s seed %d: guard flagged the attack-free twin under %s faults",
							sys.Name(), seed, prof.Name)
					}
				}
			}
		})
	}
}
