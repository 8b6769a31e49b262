package supervisor

import (
	"math"
	"testing"

	"dui/internal/blink"
	"dui/internal/packet"
)

// TestWindowFormMatchesMonitorAtEdges pins the guard's in-window test to
// the exact subtraction form blink's selector uses (now-t <= window). The
// addition form the guard used before (t >= now-window) disagrees with it
// at window edges in both directions — IEEE rounding of now-window is not
// the rounding of now-t — so the guard would judge a different gap set
// than the selector counted. Rows are concrete drift triples found by
// brute force around the Blink default window (0.8 s) and the 0.202 s RTO
// floor.
func TestWindowFormMatchesMonitorAtEdges(t *testing.T) {
	cases := []struct {
		now, at, window float64
		// in is the monitor-form (intended) verdict; oldDiffers marks the
		// rows where the pre-fix addition form returned the opposite.
		in         bool
		oldDiffers bool
	}{
		// Exact edge at the default 0.8 s window: monitor excludes, the
		// old guard form included.
		{now: 8.88, at: 8.08, window: 0.8, in: false, oldDiffers: true},
		{now: 9.284, at: 8.484, window: 0.8, in: false, oldDiffers: true},
		// Exact edge at the 0.202 s RTO floor: monitor includes, the old
		// guard form excluded.
		{now: 0.20220200000000002, at: 0.000202, window: 0.202, in: true, oldDiffers: true},
		{now: 0.20301000000000002, at: 0.00101, window: 0.202, in: true, oldDiffers: true},
		// Unambiguous interior / exterior points agree in both forms.
		{now: 10, at: 9.5, window: 0.8, in: true},
		{now: 10, at: 8.0, window: 0.8, in: false},
		{now: 1.0, at: 0.9, window: 0.202, in: true},
		{now: 1.0, at: 0.5, window: 0.202, in: false},
	}
	for _, c := range cases {
		monitorForm := c.now-c.at <= c.window
		if monitorForm != c.in {
			t.Fatalf("case (%v,%v,%v): table expectation %v does not match the monitor form %v",
				c.now, c.at, c.window, c.in, monitorForm)
		}
		if got := windowContains(c.now, c.at, c.window); got != c.in {
			t.Errorf("windowContains(%v, %v, %v) = %v, want the monitor-form verdict %v",
				c.now, c.at, c.window, got, c.in)
		}
		oldForm := c.at >= c.now-c.window
		if c.oldDiffers == (oldForm == c.in) {
			t.Errorf("case (%v,%v,%v): pre-fix form drift expectation wrong (old=%v, want drift=%v)",
				c.now, c.at, c.window, oldForm, c.oldDiffers)
		}
	}
}

// TestMonitorFiresAtExactThreshold pins the selector's boundary semantics:
// failure inference fires when the in-window retransmitting cell count
// reaches the threshold exactly (>=, not >). The guard and any search
// over it must see the same boundary.
func TestMonitorFiresAtExactThreshold(t *testing.T) {
	const cells, threshold = 8, 3
	m := blink.NewMonitor(blink.Config{Cells: cells, Threshold: threshold, Window: 0.8})
	var fired []float64
	m.OnFailure(func(now float64) { fired = append(fired, now) })

	dst := packet.MakeAddr(10, 1, 0, 1)
	src := packet.MakeAddr(20, 1, 0, 1)
	// Pick source ports whose flow keys land in distinct selector cells.
	var ports []uint16
	used := map[uint64]bool{}
	for p := uint16(2000); len(ports) < threshold; p++ {
		k := packet.FlowKey{Src: src, Dst: dst, SrcPort: p, DstPort: 443, Proto: packet.ProtoTCP}
		cell := k.FastHash() % cells
		if !used[cell] {
			used[cell] = true
			ports = append(ports, p)
		}
	}
	pkt := func(port uint16, seq uint32) *packet.Packet {
		return packet.NewTCP(src, dst, packet.TCPHeader{SrcPort: port, DstPort: 443, Seq: seq}, 512)
	}
	// Occupy the cells (first packet samples the flow), then establish
	// each flow's last sequence number (second packet). Feeds must stay in
	// non-decreasing time order across flows.
	for i, port := range ports {
		m.Feed(1.0+float64(i)*0.001, pkt(port, 1000))
	}
	for i, port := range ports {
		m.Feed(1.02+float64(i)*0.001, pkt(port, 1000))
	}
	// threshold-1 retransmissions within the window: must NOT fire.
	for i := 0; i < threshold-1; i++ {
		m.Feed(1.1+float64(i)*0.01, pkt(ports[i], 1000))
	}
	if len(fired) != 0 {
		t.Fatalf("failure fired at %d retransmitting cells (threshold %d)", threshold-1, threshold)
	}
	// The threshold-th retransmitting cell: count == threshold must fire.
	m.Feed(1.2, pkt(ports[threshold-1], 1000))
	if len(fired) != 1 || fired[0] != 1.2 {
		t.Fatalf("failure inference at count == threshold: fired %v, want exactly [1.2]", fired)
	}
}

// TestBlinkGuardBoundaryInclusive pins the veto threshold semantics: a
// window whose risk lands exactly on MaxRisk is implausible (vetoed), one
// strictly below is plausible, MaxRisk > 1 never vetoes, and MaxRisk
// <= 0 is the default 0.5.
func TestBlinkGuardBoundaryInclusive(t *testing.T) {
	m := NewRTOModel([]float64{0.05, 0.1}, 0.2)
	at := func(maxRisk float64, gaps []float64) Verdict {
		return (&BlinkGuard{Model: m, MaxRisk: maxRisk}).Check(gaps)
	}
	// A mixed window: one gap on the RTO floor (in-model), one far outside
	// every backoff band — risk strictly between 0 and 1.
	gaps := []float64{0.21, 3.5}
	base := at(0.5, gaps)
	if !(base.Risk > 0 && base.Risk < 1) {
		t.Fatalf("test window risk %v not in (0,1); pick different gaps", base.Risk)
	}
	if v := at(base.Risk, gaps); v.Plausible {
		t.Fatalf("risk exactly at MaxRisk (%v) must veto (inclusive boundary), got plausible", base.Risk)
	}
	if v := at(math.Nextafter(base.Risk, 2), gaps); !v.Plausible {
		t.Fatal("risk strictly below MaxRisk must be plausible")
	}
	if v := at(2, []float64{9, 9, 9}); !v.Plausible {
		t.Fatal("MaxRisk > 1 must never veto")
	}
	if def := at(0, gaps); def != base {
		t.Fatal("MaxRisk <= 0 must mean the default 0.5")
	}
}
