package blink

import (
	"math"
	"testing"

	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
	"dui/internal/trace"
)

// TestPipelineMultiPrefix: two single-prefix pipelines on one router keep
// independent state — an attack on one prefix must not reroute the other.
func TestPipelineMultiPrefix(t *testing.T) {
	nw := netsim.New()
	ingress := nw.AddHost("in", packet.MustParseAddr("20.0.0.1"))
	rB := nw.AddRouter("rB")
	nhA := nw.AddRouter("nhA")
	nhB := nw.AddRouter("nhB")
	vA := nw.AddHost("vA", packet.MustParseAddr("10.9.0.1"))
	vB := nw.AddHost("vB", packet.MustParseAddr("10.8.0.1"))
	nw.Connect(ingress, rB, 0, 0.001, 0)
	nw.Connect(rB, nhA, 0, 0.001, 0)
	nw.Connect(rB, nhB, 0, 0.001, 0)
	nw.Connect(nhA, vA, 0, 0.001, 0)
	nw.Connect(nhB, vB, 0, 0.001, 0)
	nw.Connect(nhA, vB, 0, 0.002, 0)
	nw.Connect(nhB, vA, 0, 0.002, 0)
	pfxA := packet.MustParsePrefix("10.9.0.0/24")
	pfxB := packet.MustParsePrefix("10.8.0.0/24")
	nw.Announce(vA, pfxA)
	nw.Announce(vB, pfxB)
	nw.ComputeRoutes()

	cfg := Config{Cells: 8}
	pipeA := NewPipeline(rB, cfg, PrefixPolicy{Prefix: pfxA, NextHops: []*netsim.Node{nhA, nhB}})
	pipeB := NewPipeline(rB, cfg, PrefixPolicy{Prefix: pfxB, NextHops: []*netsim.Node{nhB, nhA}})
	rB.AttachProgram(pipeA)
	rB.AttachProgram(pipeB)

	// Attack prefix A only.
	mal := trace.NewMalicious(trace.MaliciousConfig{
		Victim: pfxA, Flows: 40, PPS: 2, Until: 60,
		SrcBase: MalSrcBase, RetransmitFrom: 30,
	}, stats.NewRNG(1))
	PlayStream(nw, ingress, mal)
	nw.RunUntil(60)

	if nh, _ := rB.Lookup(pfxA.Addr); nh != nhB {
		t.Fatal("attacked prefix did not fail over")
	}
	if nh, _ := rB.Lookup(pfxB.Addr); nh != nhB {
		t.Fatal("unattacked prefix moved")
	}
	if n := len(pipeA.Reroutes()) + len(pipeB.Reroutes()); n != 1 {
		t.Fatalf("reroutes = %d", n)
	}
}

// TestMonitorRearmsAfterReset: failure inference fires at most once per
// sample epoch and re-arms at the reset.
func TestMonitorRearmsAfterReset(t *testing.T) {
	m := NewMonitorBank(1, Config{Cells: 2, ResetPeriod: 10})
	fires := 0
	m.OnFailure(func(_ int, now float64) { fires++ })
	k := packet.FlowKey{Src: 1, Dst: Victim.Nth(1), SrcPort: 9, DstPort: 443, Proto: packet.ProtoTCP}
	feed := func(now float64, seq uint32) {
		m.Feed(0, now, packet.NewTCP(k.Src, k.Dst, packet.TCPHeader{
			SrcPort: k.SrcPort, DstPort: k.DstPort, Seq: seq, Flags: packet.FlagACK,
		}, 1500))
	}
	feed(0, 0)
	feed(0.1, 1500)
	feed(0.2, 1500) // retrans -> failure #1
	feed(0.3, 1500) // still disarmed
	if fires != 1 {
		t.Fatalf("fires = %d before reset", fires)
	}
	// After the reset the monitor re-arms.
	feed(10.5, 0)
	feed(10.6, 1500)
	feed(10.7, 1500)
	if fires != 2 {
		t.Fatalf("fires = %d after reset", fires)
	}
}

// TestPipelineNoBackupLeft: with a single next hop, inference never
// reroutes (nothing to fail over to) and never panics.
func TestPipelineNoBackupLeft(t *testing.T) {
	nw := netsim.New()
	r := nw.AddRouter("r")
	nh := nw.AddRouter("nh")
	nw.Connect(r, nh, 0, 0.001, 0)
	pipe := NewPipeline(r, Config{Cells: 2}, PrefixPolicy{
		Prefix: Victim, NextHops: []*netsim.Node{nh},
	})
	k := packet.NewTCP(1, Victim.Nth(1), packet.TCPHeader{SrcPort: 1, DstPort: 2, Seq: 0, Flags: packet.FlagACK}, 1500)
	pipe.OnPacket(0, k, r)
	k2 := k.Clone()
	k2.TCP.Seq = 1500
	pipe.OnPacket(0.1, k2, r)
	pipe.OnPacket(0.2, k2.Clone(), r) // retrans -> inference, no backup
	if len(pipe.Reroutes()) != 0 {
		t.Fatal("rerouted with no backup")
	}
	if got, _ := r.Lookup(Victim.Addr); got != nh {
		t.Fatal("next hop changed")
	}
}

// TestTheoryHittingQuantilesBracketSimulation cross-checks the model's
// quantile inversion against direct binomial evaluation.
func TestTheoryHittingQuantilesBracketSimulation(t *testing.T) {
	m := Model{N: 64, Threshold: 32, TR: 8.37, Qm: 0.0525}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		tq := m.HittingTimeQuantile(q)
		if p := m.MajorityProb(tq); math.Abs(p-q) > 0.02 {
			t.Fatalf("P(majority at t_%v=%v) = %v", q, tq, p)
		}
	}
}
