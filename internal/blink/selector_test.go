package blink

import (
	"testing"

	"dui/internal/packet"
)

func tcpPkt(src packet.Addr, sport uint16, seq uint32, size int) *packet.Packet {
	return packet.NewTCP(src, Victim.Nth(1), packet.TCPHeader{
		SrcPort: sport, DstPort: 443, Seq: seq, Flags: packet.FlagACK,
	}, size)
}

func finPkt(src packet.Addr, sport uint16, seq uint32) *packet.Packet {
	p := tcpPkt(src, sport, seq, 1500)
	p.TCP.Flags |= packet.FlagFIN
	return p
}

func TestMonitorSamplesFirstFlow(t *testing.T) {
	m := NewMonitorBank(1, Config{Cells: 8})
	m.Feed(0, 1.0, tcpPkt(1, 100, 0, 1500))
	if got := m.CountOccupied(0, nil); got != 1 {
		t.Fatalf("occupied = %d", got)
	}
}

func TestCollisionIgnoredWhileOccupantLive(t *testing.T) {
	// With a single cell, a second flow collides with the first and must
	// not take over while the first stays active.
	m := NewMonitorBank(1, Config{Cells: 1})
	m.Feed(0, 0.0, tcpPkt(1, 100, 0, 1500))
	m.Feed(0, 0.5, tcpPkt(2, 200, 0, 1500))
	cells := m.CellsAt(0)
	if cells[0].Key.Src != 1 {
		t.Fatalf("occupant replaced by colliding flow: %v", cells[0].Key)
	}
}

func TestInactivityEviction(t *testing.T) {
	m := NewMonitorBank(1, Config{Cells: 1, InactivityTimeout: 2})
	var evs []Eviction
	m.OnEvict(func(_ int, e Eviction) { evs = append(evs, e) })
	m.Feed(0, 0.0, tcpPkt(1, 100, 0, 1500))
	m.Feed(0, 1.0, tcpPkt(1, 100, 1500, 1500)) // still active
	// Collision at 2.5s: occupant last seen 1.0 -> idle 1.5s < 2s, keep.
	m.Feed(0, 2.5, tcpPkt(2, 200, 0, 1500))
	if m.CellsAt(0)[0].Key.Src != 1 {
		t.Fatal("evicted too early")
	}
	// Collision at 3.5s: idle 2.5s >= 2s, evict and resample.
	m.Feed(0, 3.5, tcpPkt(2, 200, 0, 1500))
	if m.CellsAt(0)[0].Key.Src != 2 {
		t.Fatal("inactive occupant not evicted")
	}
	if len(evs) != 1 || evs[0].Residence != 3.5 || evs[0].Reset {
		t.Fatalf("eviction record = %+v", evs)
	}
}

func TestFinishedFlowEvictedImmediately(t *testing.T) {
	m := NewMonitorBank(1, Config{Cells: 1})
	m.Feed(0, 0.0, tcpPkt(1, 100, 0, 1500))
	m.Feed(0, 0.2, finPkt(1, 100, 1500))
	m.Feed(0, 0.3, tcpPkt(2, 200, 0, 1500)) // collision right after FIN
	if m.CellsAt(0)[0].Key.Src != 2 {
		t.Fatal("finished occupant not evicted")
	}
}

func TestSampleReset(t *testing.T) {
	m := NewMonitorBank(1, Config{Cells: 4, ResetPeriod: 10})
	var resets int
	m.OnEvict(func(_ int, e Eviction) {
		if e.Reset {
			resets++
		}
	})
	m.Feed(0, 0.0, tcpPkt(1, 100, 0, 1500))
	m.Feed(0, 9.0, tcpPkt(1, 100, 1500, 1500))
	m.Feed(0, 10.5, tcpPkt(2, 200, 0, 1500)) // past the reset boundary
	if resets != 1 {
		t.Fatalf("resets = %d", resets)
	}
	// The old occupant is gone; only flow 2 is monitored.
	if got := m.CountOccupied(0, func(k packet.FlowKey) bool { return k.Src == 1 }); got != 0 {
		t.Fatal("reset did not clear the sample")
	}
	if got := m.CountOccupied(0, nil); got != 1 {
		t.Fatalf("occupied after reset = %d", got)
	}
}

func TestRetransmissionDetection(t *testing.T) {
	m := NewMonitorBank(1, Config{Cells: 4})
	var evs []RetransEvent
	m.OnRetrans(func(_ int, e RetransEvent) { evs = append(evs, e) })
	m.Feed(0, 0.0, tcpPkt(1, 100, 0, 1500))
	m.Feed(0, 0.1, tcpPkt(1, 100, 1500, 1500))
	m.Feed(0, 0.4, tcpPkt(1, 100, 1500, 1500)) // duplicate seq -> retransmission
	if len(evs) != 1 {
		t.Fatalf("retrans events = %d", len(evs))
	}
	if evs[0].Gap < 0.29 || evs[0].Gap > 0.31 {
		t.Fatalf("gap = %v", evs[0].Gap)
	}
	// Advancing seq again is not a retransmission.
	m.Feed(0, 0.5, tcpPkt(1, 100, 3000, 1500))
	if len(evs) != 1 {
		t.Fatal("false positive retransmission")
	}
}

func TestPureAcksDoNotTriggerRetrans(t *testing.T) {
	m := NewMonitorBank(1, Config{Cells: 4})
	fired := 0
	m.OnRetrans(func(_ int, e RetransEvent) { fired++ })
	// 40-byte pure ACKs with identical seq must not count.
	m.Feed(0, 0.0, tcpPkt(1, 100, 0, 40))
	m.Feed(0, 0.1, tcpPkt(1, 100, 0, 40))
	m.Feed(0, 0.2, tcpPkt(1, 100, 0, 40))
	if fired != 0 {
		t.Fatal("pure ACKs flagged as retransmissions")
	}
}

func TestFailureInferenceAtMajority(t *testing.T) {
	cfg := Config{Cells: 8}
	m := NewMonitorBank(1, cfg)
	var failures []float64
	m.OnFailure(func(_ int, now float64) { failures = append(failures, now) })

	// Fill distinct cells with distinct flows by brute force: try many
	// flows, keep those that landed in empty cells.
	var keys []*packet.Packet
	for s := uint16(1); len(keys) < 8 && s < 5000; s++ {
		before := m.CountOccupied(0, nil)
		p := tcpPkt(packet.Addr(s), s, 0, 1500)
		m.Feed(0, 0.0, p)
		if m.CountOccupied(0, nil) > before {
			keys = append(keys, p)
		}
	}
	if len(keys) < 8 {
		t.Fatalf("could not fill cells (%d)", len(keys))
	}
	// Advance each flow, then retransmit on 3 flows: below threshold.
	for i, p := range keys {
		q := p.Clone()
		q.TCP.Seq = 1500
		m.Feed(0, 0.2+float64(i)*0.001, q)
	}
	retr := func(i int, now float64) {
		q := keys[i].Clone()
		q.TCP.Seq = 1500
		m.Feed(0, now, q)
	}
	retr(0, 0.5)
	retr(1, 0.51)
	retr(2, 0.52)
	if len(failures) != 0 {
		t.Fatal("failure inferred below threshold")
	}
	retr(3, 0.53)
	if len(failures) != 1 {
		t.Fatalf("failures = %v", failures)
	}
	// Inference is disarmed until the next reset.
	retr(4, 0.54)
	if len(failures) != 1 {
		t.Fatal("multiple inferences within one epoch")
	}
}

func TestFailureWindowExpiry(t *testing.T) {
	// Retransmissions spread wider than the window must not trigger.
	cfg := Config{Cells: 4}
	m := NewMonitorBank(1, cfg)
	var failures []float64
	m.OnFailure(func(_ int, now float64) { failures = append(failures, now) })
	var pkts []*packet.Packet
	for s := uint16(1); len(pkts) < 4 && s < 5000; s++ {
		before := m.CountOccupied(0, nil)
		p := tcpPkt(packet.Addr(s), s, 0, 1500)
		m.Feed(0, 0.0, p)
		if m.CountOccupied(0, nil) > before {
			pkts = append(pkts, p)
		}
	}
	for i, p := range pkts {
		q := p.Clone()
		q.TCP.Seq = 1500
		m.Feed(0, 0.1+float64(i)*0.001, q)
	}
	retr := func(i int, now float64) {
		q := pkts[i].Clone()
		q.TCP.Seq = 1500
		m.Feed(0, now, q)
	}
	retr(0, 1.0)
	retr(1, 2.0) // 1s apart > RetransWindow
	if len(failures) != 0 {
		t.Fatalf("window not enforced: %v", failures)
	}
}

func TestNonTCPIgnored(t *testing.T) {
	m := NewMonitorBank(1, Config{Cells: 4})
	m.Feed(0, 0, packet.NewUDP(1, Victim.Nth(1), packet.UDPHeader{SrcPort: 1, DstPort: 2}, 100))
	if m.CountOccupied(0, nil) != 0 {
		t.Fatal("UDP packet sampled")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := Config{}.Defaults()
	if cfg.Cells != 64 || cfg.Threshold() != 32 {
		t.Fatalf("cells/threshold = %d/%d", cfg.Cells, cfg.Threshold())
	}
	if cfg.InactivityTimeout != 2.0 {
		t.Fatalf("inactivity = %v", cfg.InactivityTimeout)
	}
	if cfg.ResetPeriod != 510 {
		t.Fatalf("reset = %v (want 8.5 min)", cfg.ResetPeriod)
	}
}

// TestThresholdIsIntegerMajority pins the derived threshold's rounding:
// Cells/2 in integer division. Fuzzed and corpus scenarios carry cell
// counts from 1 to 4096, so an odd count's threshold reaches pinned bytes.
func TestThresholdIsIntegerMajority(t *testing.T) {
	for _, c := range []struct{ cells, want int }{{1, 0}, {4, 2}, {7, 3}, {8, 4}, {64, 32}} {
		if got := (Config{Cells: c.cells}).Defaults().Threshold(); got != c.want {
			t.Errorf("threshold of %d cells = %d, want %d", c.cells, got, c.want)
		}
	}
}
