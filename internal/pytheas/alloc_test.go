//go:build !race

// Allocation guards, excluded under -race, whose instrumentation changes
// inlining and allocation behavior.

package pytheas

import (
	"testing"

	"dui/internal/stats"
)

// TestReportScoreZeroAllocs pins 0 allocs/op for a report and a
// MAD-filtered score on a full window: the eviction, the sorted-view
// upkeep and the filter all reuse the window's own arrays.
func TestReportScoreZeroAllocs(t *testing.T) {
	g := NewGroup(E2Config{Options: 1, Aggregate: MADFiltered(3)})
	rng := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		g.Report(0, 5*rng.Float64())
	}
	g.Score(0)
	if avg := testing.AllocsPerRun(1000, func() {
		g.Report(0, 5*rng.Float64())
		g.Score(0)
	}); avg != 0 {
		t.Fatalf("Report+Score allocates %.1f objects/op, want 0", avg)
	}
}
