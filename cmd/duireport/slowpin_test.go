//go:build !race

package main

import "testing"

// TestSlowPinned pins the two multi-second runs, dataplane-attacks and
// the quick report mode, which nothing else pins. Under -race they take
// about 20 and 35 s, so the race-enabled suite skips them; plain
// go test runs them.
func TestSlowPinned(t *testing.T) {
	for _, p := range []struct{ args, sha string }{
		{"dataplane-attacks", "0bf7156fd39ac5466f3a2cc9e67debb61602f3bb93307bb50b3856c08e454e88"},
		{"-quick", "fab3ee64af5860fc34d388498bb9cb7677d360d998bc456f1762519866ba3fca"},
	} {
		t.Run(p.args, func(t *testing.T) {
			t.Parallel()
			checkPin(t, p.args, p.sha)
		})
	}
}
