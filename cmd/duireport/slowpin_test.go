//go:build !race

package main

import "testing"

// TestSlowPinned pins the runs that take over a second without -race:
// dataplane-attacks, the quick report mode, the quick chaos-eval,
// advsearch and robustness campaigns (digests of their former standalone
// binaries; robustness -quick -json is the checked-in
// robustness-matrix.json), and the full-scale robustness matrix at seeds 1
// and 2, whose TCP-driven cells run tcpflow for the full trial length the
// quick matrix shortens. Under -race they take tens of seconds each, so
// the race-enabled suite skips them; plain go test runs them.
func TestSlowPinned(t *testing.T) {
	for _, p := range []struct{ args, sha string }{
		{"dataplane-attacks", "0bf7156fd39ac5466f3a2cc9e67debb61602f3bb93307bb50b3856c08e454e88"},
		{"-quick", "fab3ee64af5860fc34d388498bb9cb7677d360d998bc456f1762519866ba3fca"},
		{"chaos-eval -quick", "0b9767f32f7bca875344c3b261b85d4bc9637fc0e4305373160cf0f42a3b38d4"},
		{"chaos-eval -quick -csv", "a2098534b84c8f57fd5d4dd3b5a78a9009dfee3fe9cb89d0963cc1f73e52e4ee"},
		{"chaos-eval -quick -json", "79bccc1dfc73b597b124fbb7ea0cbfdaea42f03591590cfd5defa57707176a3e"},
		{"advsearch -quick", "07bd9b5fa279043d68e2657ed9a12eb4a8ad68316b2f3341f21ee127008566ac"},
		{"robustness -quick", "d06e2c77799fff153398b22b4ae6737a64f061d4c08ca500ae1ecca87e35cfd6"},
		{"robustness -quick -json", "e729e2b2ad0c1fae25b48051f242f3004cff10c8654283ba616588886ac50d9c"},
		{"robustness -json", "8566f28148edd53935051f40a65ff28714289bf2d9dce34be102089b15c9bb49"},
		{"robustness -json -seed 2", "bdfa0765c3bcda3221220873fa92718c51ad4fd29dfb2585bccdab102e350761"},
	} {
		t.Run(p.args, func(t *testing.T) {
			t.Parallel()
			checkPin(t, p.args, p.sha)
		})
	}
}
