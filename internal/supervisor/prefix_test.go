package supervisor

import (
	"math"
	"testing"

	"dui/internal/audit"
	"dui/internal/blink"
	"dui/internal/netsim"
	"dui/internal/packet"
)

// TestPipelineObserversWatchPrefixZero pins the prefix filter of the
// observers a guarded deployment stacks on a Pipeline's bank: on a
// two-policy pipeline, GuardPipeline's gap window and MonAudit's trace see
// only prefix 0 while policy 1's prefix takes a retransmission storm that
// reroutes it.
func TestPipelineObserversWatchPrefixZero(t *testing.T) {
	nw := netsim.New()
	r := nw.AddRouter("r")
	nhA := nw.AddRouter("nhA")
	nhB := nw.AddRouter("nhB")
	nw.Connect(r, nhA, 0, 0.001, 0)
	nw.Connect(r, nhB, 0, 0.001, 0)
	pfx0 := packet.MustParsePrefix("10.9.0.0/24")
	pfx1 := packet.MustParsePrefix("10.8.0.0/24")
	pipe := blink.NewPipeline(r, blink.Config{Cells: 8, Threshold: 4, Window: 1}, []blink.PrefixPolicy{
		{Prefix: pfx0, NextHops: []*netsim.Node{nhA, nhB}},
		{Prefix: pfx1, NextHops: []*netsim.Node{nhA, nhB}},
	})
	g := GuardPipeline(pipe, NewRTOModel([]float64{0.05, 0.1}, 0.2))
	g.MaxRisk = 2 // never veto: the storm must reroute policy 1
	rec := audit.NewRecorder()
	mon := audit.AttachMonitor(pipe.Bank(), 0, rec)

	seg := func(dst packet.Addr, port uint16) *packet.Packet {
		return packet.NewTCP(packet.MakeAddr(20, 0, 0, 1), dst, packet.TCPHeader{
			SrcPort: port, DstPort: 443, Seq: 1460, Flags: packet.FlagACK,
		}, 1500)
	}
	// Prefix 0: one flow, sampled, then one retransmission 0.3 s after
	// its previous packet.
	quiet := seg(pfx0.Nth(1), 1000)
	pipe.OnPacket(0.0, quiet, r)
	pipe.OnPacket(0.1, quiet, r)
	pipe.OnPacket(0.4, quiet, r)
	// Prefix 1: every flow repeats its sequence number, so each sampled
	// cell retransmits in the third round and inference fires.
	var storm []*packet.Packet
	for port := uint16(2000); port < 2064; port++ {
		storm = append(storm, seg(pfx1.Nth(1), port))
	}
	for _, now := range []float64{1.0, 1.1, 1.2} {
		for _, p := range storm {
			pipe.OnPacket(now, p, r)
		}
	}

	bank := pipe.Bank()
	if bank.FailureCount(1) != 1 || bank.FailureCount(0) != 0 {
		t.Fatalf("failures: prefix 0 %d, prefix 1 %d; want 0 and 1", bank.FailureCount(0), bank.FailureCount(1))
	}
	if pipe.CurrentNextHop(1) != nhB || pipe.CurrentNextHop(0) != nhA {
		t.Fatal("the storm did not reroute policy 1 alone")
	}
	if len(g.gaps) != 1 || math.Abs(g.gaps[0]-0.3) > 1e-9 || g.times[0] != 0.4 {
		t.Fatalf("guard gap window = gaps %v at %v, want prefix 0's single 0.3 s gap at 0.4", g.gaps, g.times)
	}
	if len(g.Verdicts) != 1 {
		t.Fatalf("guard judged %d failovers, want 1", len(g.Verdicts))
	}
	want := quiet.Flow().FastHash()
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Kind != audit.KindSample || evs[1].Kind != audit.KindRetrans {
		t.Fatalf("trace = %v, want prefix 0's sample and retransmission", evs)
	}
	for _, ev := range evs {
		if ev.Flow != want {
			t.Fatalf("trace recorded flow %#x of another prefix: %v", ev.Flow, ev)
		}
	}
	if err := mon.Check(1.2); err != nil {
		t.Fatal(err)
	}
}
