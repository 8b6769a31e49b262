package pcc

import (
	"testing"

	"dui/internal/faults"
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
	"dui/internal/tcpflow"
)

// TestAckWindowBoundedUnderGray runs a PCC flow through gray failure —
// duplicated and jittered packets, so echoes keep landing after their MI
// was finalized — and checks that the echo window never grows past the
// MIs still open, that such late echoes really occur, and that no echo
// is parked for a seq not sent yet.
func TestAckWindowBoundedUnderGray(t *testing.T) {
	nw := netsim.New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	r := nw.AddRouter("r")
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	up := nw.Connect(h1, r, 2e6, 0.01, 40)
	bottleneck := nw.Connect(r, h2, 1e6, 0.01, 20)
	nw.ComputeRoutes()
	bottleneck.SetFault(faults.NewGray(faults.GrayConfig{LossP: 0.01, DupP: 0.2, JitterP: 0.5, Jitter: 0.4}, stats.NewRNG(11)))
	e1, e2 := tcpflow.NewEndpoint(h1), tcpflow.NewEndpoint(h2)
	key := packet.FlowKey{Src: h1.Addr, Dst: h2.Addr, SrcPort: 5000, DstPort: 80, Proto: packet.ProtoTCP}
	s := Start(e1, e2, Config{Key: key, StartRate: 50, MinMI: 0.3}, stats.NewRNG(3))
	late := 0
	nw.SetLinkProbe(func(now float64, kind netsim.LinkEventKind, l *netsim.Link, dir netsim.Direction, p *packet.Packet) {
		if kind == netsim.LinkDelivered && l == up && dir == netsim.BToA && uint64(p.TCP.Ack) < s.acks.lo {
			late++
		}
	})
	maxSpan := uint64(0)
	for t0 := 1.0; t0 <= 60; t0++ {
		nw.RunUntil(t0)
		span := uint64(0)
		for _, sp := range s.open {
			span += sp.hi - sp.lo
		}
		// The bitmap covers the open MIs, any finalized MI between them,
		// and at most 63 seqs of alignment slack below the oldest.
		if got := uint64(len(s.acks.words)) * 64; got > 2*span+128 {
			t.Fatalf("t=%v: ack window covers %d seqs for %d open-MI seqs", t0, got, span)
		}
		if span > maxSpan {
			maxSpan = span
		}
		if len(s.acks.ahead) != 0 {
			t.Fatalf("t=%v: %d echoes parked ahead of the window", t0, len(s.acks.ahead))
		}
	}
	if late == 0 {
		t.Fatal("no echo landed below the window: the run does not exercise the late-echo drop")
	}
	if len(s.Records()) < 50 || maxSpan == 0 {
		t.Fatalf("flow did not run: %d records", len(s.Records()))
	}
	t.Logf("late echoes dropped: %d, max open span %d, records %d, window words %d", late, maxSpan, len(s.Records()), len(s.acks.words))
}
