package sketch

import (
	"slices"
	"testing"
)

// fullScanPolluting is CraftPollutingFlows written as a full scan: hash
// every partition of a candidate, then test the positions.
func fullScanPolluting(m, k, n int, region float64, start FlowID) []FlowID {
	rangeLen := m / k
	limit := max(int(region*float64(rangeLen)), 1)
	var out []FlowID
	for id := start; len(out) < n; id++ {
		ok := true
		for i, p := range appendPositions(nil, id, k, m) {
			ok = ok && p-i*rangeLen < limit
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// fullScanHiders is CraftTargetedHiders written as a full scan.
func fullScanHiders(m, k int, victim FlowID, region float64, perCell int, start FlowID) []FlowID {
	rangeLen := m / k
	limit := max(int(region*float64(rangeLen)), 1)
	vic := appendPositions(nil, victim, k, m)
	var out []FlowID
	for target := 0; target < k; target++ {
		for found, id := 0, start; found < perCell; id++ {
			ps := appendPositions(nil, id, k, m)
			ok := ps[target] == vic[target] && id != victim
			for i, p := range ps {
				ok = ok && (i == target || p-i*rangeLen < limit)
			}
			if ok {
				out = append(out, id)
				found++
				start = id + 1
			}
		}
	}
	return out
}

// TestCraftMatchesFullScan checks that the crafters, which hash one
// partition at a time and reject a label at the first partition outside
// the region, return exactly the labels a full scan of every partition
// returns: at the matrix's table sizes (1024 cells, 819 under degrade,
// 512 under quick) and at a four-partition table with a wider region.
func TestCraftMatchesFullScan(t *testing.T) {
	for _, c := range []struct {
		m, k   int
		region float64
	}{{1024, 3, 0.1}, {819, 3, 0.1}, {512, 3, 0.1}, {1024, 4, 0.2}} {
		got := CraftPollutingFlows(c.m, c.k, 120, c.region, 1<<40)
		if want := fullScanPolluting(c.m, c.k, 120, c.region, 1<<40); !slices.Equal(got, want) {
			t.Errorf("CraftPollutingFlows(%d, %d, region %g) = %v, full scan %v", c.m, c.k, c.region, got, want)
		}
		for _, victim := range []FlowID{0x9e3779b97f4a7c15, 1<<41 + 7} {
			got := CraftTargetedHiders(c.m, c.k, victim, c.region, 2, 1<<41)
			if want := fullScanHiders(c.m, c.k, victim, c.region, 2, 1<<41); !slices.Equal(got, want) {
				t.Errorf("CraftTargetedHiders(%d, %d, %#x, region %g) = %v, full scan %v", c.m, c.k, victim, c.region, got, want)
			}
		}
	}
}
