package supervisor

import (
	"math"
	"testing"

	"dui/internal/audit"
	"dui/internal/blink"
	"dui/internal/netsim"
	"dui/internal/packet"
)

// TestGuardsJudgeOwnPrefix puts two guarded single-prefix pipelines on one
// router. A retransmission storm on B's prefix must be vetoed by B's guard
// from B's own gaps, while A's guard, which saw only A's one plausible
// 0.3 s gap, records no verdict and A's trace holds only A's flow.
func TestGuardsJudgeOwnPrefix(t *testing.T) {
	nw := netsim.New()
	r := nw.AddRouter("r")
	nhA := nw.AddRouter("nhA")
	nhB := nw.AddRouter("nhB")
	nw.Connect(r, nhA, 0, 0.001, 0)
	nw.Connect(r, nhB, 0, 0.001, 0)
	pfxA := packet.MustParsePrefix("10.9.0.0/24")
	pfxB := packet.MustParsePrefix("10.8.0.0/24")
	cfg := blink.Config{Cells: 8}
	model := NewRTOModel([]float64{0.05, 0.1}, 0.2)
	pipeA := blink.NewPipeline(r, cfg, blink.PrefixPolicy{Prefix: pfxA, NextHops: []*netsim.Node{nhA, nhB}})
	pipeB := blink.NewPipeline(r, cfg, blink.PrefixPolicy{Prefix: pfxB, NextHops: []*netsim.Node{nhA, nhB}})
	r.AttachProgram(pipeA)
	r.AttachProgram(pipeB)
	gA := GuardPipeline(pipeA, model)
	gB := GuardPipeline(pipeB, model)
	rec := audit.NewRecorder()
	mon := audit.AttachMonitor(pipeA.Bank(), rec)

	seg := func(dst packet.Addr, port uint16) *packet.Packet {
		return packet.NewTCP(packet.MakeAddr(20, 0, 0, 1), dst, packet.TCPHeader{
			SrcPort: port, DstPort: 443, Seq: 1460, Flags: packet.FlagACK,
		}, 1500)
	}
	eng := nw.Engine()
	send := func(now float64, p *packet.Packet) {
		eng.At(now, func() { r.Send(p.Clone()) })
	}
	// Prefix A: one flow, sampled, then one retransmission 0.3 s after
	// its previous packet.
	quiet := seg(pfxA.Nth(1), 1000)
	for _, now := range []float64{0.0, 0.1, 0.4} {
		send(now, quiet)
	}
	// Prefix B: every flow repeats its sequence number 0.1 s apart, far
	// below the model's 200 ms RTO floor, so inference fires on gaps the
	// guard judges implausible.
	for _, now := range []float64{1.0, 1.1, 1.2} {
		for port := uint16(2000); port < 2064; port++ {
			send(now, seg(pfxB.Nth(1), port))
		}
	}
	nw.RunUntil(2)

	if pipeA.Bank().FailureCount(0) != 0 || pipeB.Bank().FailureCount(0) != 1 {
		t.Fatalf("failures: A %d, B %d; want 0 and 1", pipeA.Bank().FailureCount(0), pipeB.Bank().FailureCount(0))
	}
	if nh, _ := r.Lookup(pfxB.Addr); pipeB.VetoedReroutes != 1 || len(pipeB.Reroutes()) != 0 || nh != nhA {
		t.Fatalf("B: %d vetoes, %d reroutes; want the storm's failover vetoed", pipeB.VetoedReroutes, len(pipeB.Reroutes()))
	}
	if len(gB.Verdicts) != 1 || gB.Verdicts[0].Plausible {
		t.Fatalf("B's guard verdicts = %+v, want one implausible", gB.Verdicts)
	}
	if len(gB.gaps) == 0 {
		t.Fatal("B's guard recorded no gaps")
	}
	for _, g := range gB.gaps {
		if math.Abs(g-0.1) > 1e-9 {
			t.Fatalf("B's guard gap window = %v, want only B's 0.1 s gaps", gB.gaps)
		}
	}
	if nh, _ := r.Lookup(pfxA.Addr); len(gA.Verdicts) != 0 || pipeA.VetoedReroutes != 0 || nh != nhA {
		t.Fatalf("A's guard judged %d failovers, want none", len(gA.Verdicts))
	}
	if len(gA.gaps) != 1 || math.Abs(gA.gaps[0]-0.3) > 1e-9 || gA.times[0] != 0.4 {
		t.Fatalf("A's guard gap window = gaps %v at %v, want A's single 0.3 s gap at 0.4", gA.gaps, gA.times)
	}
	want := quiet.Flow().FastHash()
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Kind != audit.KindSample || evs[1].Kind != audit.KindRetrans {
		t.Fatalf("trace = %v, want A's sample and retransmission", evs)
	}
	for _, ev := range evs {
		if ev.Flow != want {
			t.Fatalf("trace recorded flow %#x of another prefix: %v", ev.Flow, ev)
		}
	}
	if err := mon.Check(2); err != nil {
		t.Fatal(err)
	}
}
