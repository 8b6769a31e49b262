package netsim

import (
	"fmt"
	"testing"

	"dui/internal/packet"
)

// Packet lifecycle: a recyclable packet the network issued (NewTCP,
// CloneTCP) returns to the network's free list exactly once, at its one
// end of life, and never while a queue, the wire or a hold still has it.

var (
	addrH1 = packet.MustParseAddr("10.0.0.1")
	addrH2 = packet.MustParseAddr("10.0.1.1")
)

// recycleNet builds h1 -- r -- h2 with the given parameters on both links.
func recycleNet(rateBps, delay float64, qcap int) (*Network, *Node, *Node, *Node, [2]*Link) {
	nw := New()
	h1 := nw.AddHost("h1", addrH1)
	r := nw.AddRouter("r")
	h2 := nw.AddHost("h2", addrH2)
	links := [2]*Link{
		nw.Connect(h1, r, rateBps, delay, qcap),
		nw.Connect(r, h2, rateBps, delay, qcap),
	}
	nw.ComputeRoutes()
	return nw, h1, r, h2, links
}

// freeCount returns how often p is on nw's free list.
func freeCount(nw *Network, p *packet.Packet) int {
	n := 0
	for _, q := range nw.free {
		if q == p {
			n++
		}
	}
	return n
}

// wantFree fails unless p is on the free list exactly want times.
func wantFree(t *testing.T, nw *Network, p *packet.Packet, want int, when string) {
	t.Helper()
	if got := freeCount(nw, p); got != want {
		t.Fatalf("%s: packet on the free list %d times, want %d", when, got, want)
	}
}

func newPkt(nw *Network, seq uint32) *packet.Packet {
	return nw.NewTCP(addrH1, addrH2, packet.TCPHeader{SrcPort: 1, DstPort: 2, Seq: seq}, 1000)
}

func TestReleaseOnHostDelivery(t *testing.T) {
	nw, h1, _, h2, _ := recycleNet(0, 0.01, 0)
	var p *packet.Packet
	seen := 0
	h2.SetReceiver(ReceiverFunc(func(now float64, q *packet.Packet) {
		seen++
		if q != p || q.TCP.Seq != 7 {
			t.Fatalf("receiver got %v, want the sent packet", q)
		}
		wantFree(t, nw, p, 0, "inside the receiver")
	}))
	p = newPkt(nw, 7)
	h1.Send(p)
	nw.RunUntil(0.015)
	wantFree(t, nw, p, 0, "on the wire")
	nw.RunUntil(1)
	if seen != 1 {
		t.Fatalf("delivered %d times", seen)
	}
	wantFree(t, nw, p, 1, "after delivery")

	// No receiver installed: delivery still ends the packet's life.
	h2.SetReceiver(nil)
	q := newPkt(nw, 8)
	if q != p {
		t.Fatal("NewTCP did not reuse the released packet")
	}
	h1.Send(q)
	nw.RunUntil(2)
	wantFree(t, nw, q, 1, "after delivery without a receiver")
}

func TestReleaseOnHostTransit(t *testing.T) {
	nw := New()
	h1 := nw.AddHost("h1", addrH1)
	h2 := nw.AddHost("h2", addrH2)
	nw.Connect(h1, h2, 0, 0.01, 0)
	nw.ComputeRoutes()
	// h1 routes 99/8 at h2, which is a host and does not forward.
	h1.AddRoute(packet.Prefix{Addr: packet.MustParseAddr("99.0.0.0"), Bits: 8}, h2)
	p := nw.NewTCP(addrH1, packet.MustParseAddr("99.9.9.9"), packet.TCPHeader{}, 100)
	h1.Send(p)
	nw.RunUntil(1)
	if h2.Stats().Received != 1 {
		t.Fatalf("h2 received %d", h2.Stats().Received)
	}
	wantFree(t, nw, p, 1, "after transit arrival at a host")
}

func TestReleaseOnNoRouteAndProgramDrop(t *testing.T) {
	nw, h1, r, _, _ := recycleNet(0, 0.01, 0)
	h1.AddRoute(packet.Prefix{Addr: packet.MustParseAddr("99.0.0.0"), Bits: 8}, r)
	p := nw.NewTCP(addrH1, packet.MustParseAddr("99.9.9.9"), packet.TCPHeader{}, 100)
	h1.Send(p)
	nw.RunUntil(1)
	if r.Stats().NoRoute != 1 {
		t.Fatalf("router NoRoute = %d", r.Stats().NoRoute)
	}
	wantFree(t, nw, p, 1, "after no route")

	r.AttachProgram(programFunc(func(now float64, q *packet.Packet, n *Node) bool { return false }))
	p = newPkt(nw, 1)
	h1.Send(p)
	nw.RunUntil(2)
	if r.Stats().ProgramDrop != 1 {
		t.Fatalf("router ProgramDrop = %d", r.Stats().ProgramDrop)
	}
	wantFree(t, nw, p, 1, "after a program drop")
}

type programFunc func(now float64, p *packet.Packet, n *Node) bool

func (f programFunc) OnPacket(now float64, p *packet.Packet, n *Node) bool { return f(now, p, n) }

// TestReleaseOnTTLExpiry also checks that the ICMP reply is built from the
// expired packet before its release: under PoisonReleased a later build
// would quote poison.
func TestReleaseOnTTLExpiry(t *testing.T) {
	defer func() { DebugHooks.PoisonReleased = false }()
	for _, poisoned := range []bool{false, true} {
		DebugHooks.PoisonReleased = poisoned
		nw, h1, _, _, _ := recycleNet(0, 0.01, 0)
		var reply *packet.Packet
		h1.SetReceiver(ReceiverFunc(func(now float64, q *packet.Packet) { reply = q.Clone() }))
		p := newPkt(nw, 1)
		p.TTL = 1
		h1.Send(p)
		nw.RunUntil(1)
		DebugHooks.PoisonReleased = false
		if reply == nil || reply.ICMP == nil || reply.ICMP.OrigDst != addrH2 || reply.ICMP.OrigSrc != addrH1 || reply.ICMP.OrigTTL != 1 {
			t.Fatalf("poisoned=%v: time-exceeded reply %v does not quote the expired packet", poisoned, reply)
		}
		if poisoned {
			if p.ID != ^uint64(0) || len(nw.free) != 0 {
				t.Fatalf("released packet not poisoned: %v, free list %d", p, len(nw.free))
			}
			continue
		}
		wantFree(t, nw, p, 1, "after TTL expiry")
	}
}

func TestReleaseOnTapDropAndReplace(t *testing.T) {
	nw, h1, _, h2, links := recycleNet(0, 0.01, 0)
	var verdict func(p *packet.Packet) TapVerdict
	links[0].AttachTap(TapFunc(func(now float64, p *packet.Packet, dir Direction) TapVerdict { return verdict(p) }))
	var got []*packet.Packet
	h2.SetReceiver(ReceiverFunc(func(now float64, q *packet.Packet) { got = append(got, q) }))

	verdict = func(*packet.Packet) TapVerdict { return TapVerdict{Drop: true} }
	p := newPkt(nw, 1)
	h1.Send(p)
	wantFree(t, nw, p, 1, "after a tap drop")

	// Replace by another packet: the original's life ends at the tap.
	var repl *packet.Packet
	verdict = func(q *packet.Packet) TapVerdict {
		repl = q.Clone()
		repl.TCP.Seq = 99
		return TapVerdict{Replace: repl}
	}
	p = newPkt(nw, 2)
	h1.Send(p)
	wantFree(t, nw, p, 1, "after a tap replaced it")
	nw.RunUntil(1)
	if len(got) != 1 || got[0] != repl || repl.TCP.Seq != 99 {
		t.Fatalf("delivered %v, want the replacement", got)
	}
	wantFree(t, nw, p, 1, "after the replacement's delivery")
	if freeCount(nw, repl) != 0 {
		t.Fatal("a tap's plain clone reached the free list")
	}

	// Replace by the packet itself releases nothing at the tap.
	verdict = func(q *packet.Packet) TapVerdict { return TapVerdict{Replace: q} }
	p = newPkt(nw, 3)
	h1.Send(p)
	wantFree(t, nw, p, 0, "after Replace == p")
	nw.RunUntil(2)
	wantFree(t, nw, p, 1, "after delivery of a Replace == p packet")
}

func TestReleaseOnFaultDropAndReplace(t *testing.T) {
	nw, h1, _, h2, links := recycleNet(0, 0.01, 0)
	var verdict func(p *packet.Packet) FaultVerdict
	links[0].SetFault(faultFunc(func(now float64, p *packet.Packet, dir Direction) FaultVerdict { return verdict(p) }))
	delivered := 0
	h2.SetReceiver(ReceiverFunc(func(now float64, q *packet.Packet) { delivered++ }))

	verdict = func(*packet.Packet) FaultVerdict { return FaultVerdict{Drop: true} }
	p := newPkt(nw, 1)
	h1.Send(p)
	wantFree(t, nw, p, 1, "after a fault drop")

	verdict = func(q *packet.Packet) FaultVerdict { return FaultVerdict{Replace: q.Clone()} }
	p = newPkt(nw, 2)
	h1.Send(p)
	wantFree(t, nw, p, 1, "after a fault replaced it")

	verdict = func(q *packet.Packet) FaultVerdict { return FaultVerdict{Replace: q} }
	p = newPkt(nw, 3)
	h1.Send(p)
	wantFree(t, nw, p, 0, "after fault Replace == p")
	nw.RunUntil(1)
	wantFree(t, nw, p, 1, "after delivery of a fault Replace == p packet")
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
}

type faultFunc func(now float64, p *packet.Packet, dir Direction) FaultVerdict

func (f faultFunc) Apply(now float64, p *packet.Packet, dir Direction) FaultVerdict {
	return f(now, p, dir)
}

func TestReleaseOnDownAndQueueDrop(t *testing.T) {
	nw, h1, _, _, links := recycleNet(8000, 0.01, 1) // 1 s per 1000-byte packet
	links[0].SetUp(false)
	p := newPkt(nw, 1)
	h1.Send(p)
	wantFree(t, nw, p, 1, "after a down drop")
	links[0].SetUp(true)

	// The queue-drop probe still sees the packet; its life ends after.
	var dropped []*packet.Packet
	nw.SetLinkProbe(func(now float64, kind LinkEventKind, l *Link, dir Direction, q *packet.Packet) {
		if kind != LinkQueueDrop {
			return
		}
		if q.TCP.Seq != 3 {
			t.Fatalf("drop probe saw seq %d, want 3", q.TCP.Seq)
		}
		wantFree(t, nw, q, 0, "inside the drop probe")
		dropped = append(dropped, q)
	})
	a, b := newPkt(nw, 2), newPkt(nw, 3)
	h1.Send(a)
	h1.Send(b)
	if len(dropped) != 1 || dropped[0] != b {
		t.Fatalf("queue drops %v", dropped)
	}
	wantFree(t, nw, b, 1, "after a queue drop")
	wantFree(t, nw, a, 0, "while queued")
}

// TestReleaseOnFailureFlush covers both delivery paths: a flushed lane
// entry ends its packet's life when it pops, a flushed closure when it
// runs — never at the failure itself.
func TestReleaseOnFailureFlush(t *testing.T) {
	defer func() { DebugHooks.DisableLinkLanes = false }()
	for _, lanes := range []bool{true, false} {
		DebugHooks.DisableLinkLanes = !lanes
		nw, h1, _, _, links := recycleNet(8000, 0.01, 0)
		ps := []*packet.Packet{newPkt(nw, 1), newPkt(nw, 2), newPkt(nw, 3)}
		for _, p := range ps {
			h1.Send(p)
		}
		nw.RunUntil(0.5) // ps[0] serializing, the others queued
		links[0].SetUp(false)
		for _, p := range ps {
			wantFree(t, nw, p, 0, "at the failure")
		}
		nw.RunUntil(100)
		DebugHooks.DisableLinkLanes = false
		for _, p := range ps {
			wantFree(t, nw, p, 1, "after the flushed deliveries ran")
		}
		if st := links[0].Stats(AToB); st.DownDrop != 3 {
			t.Fatalf("lanes=%v: DownDrop = %d, want 3", lanes, st.DownDrop)
		}
	}
}

// TestNoReleaseWhileHeld pins that queued, on-wire and tap- or
// fault-held packets stay off the free list, and that holds end in
// (t, seq) order across both kinds.
func TestNoReleaseWhileHeld(t *testing.T) {
	nw, h1, _, h2, links := recycleNet(8000, 0.5, 0)
	var order []uint32
	h2.SetReceiver(ReceiverFunc(func(now float64, q *packet.Packet) { order = append(order, q.TCP.Seq) }))
	links[0].AttachTap(TapFunc(func(now float64, p *packet.Packet, dir Direction) TapVerdict {
		if p.TCP.Seq == 1 {
			return TapVerdict{Delay: 3}
		}
		return TapVerdict{}
	}))
	links[0].SetFault(faultFunc(func(now float64, p *packet.Packet, dir Direction) FaultVerdict {
		if p.TCP.Seq == 2 {
			return FaultVerdict{Delay: 1}
		}
		return FaultVerdict{}
	}))
	ps := []*packet.Packet{newPkt(nw, 1), newPkt(nw, 2), newPkt(nw, 3)}
	for _, p := range ps {
		h1.Send(p)
	}
	// Seq 3 is delivered at 3.0 s, seq 2 (fault-held to 1 s) at 4.0 s and
	// seq 1 (tap-held to 3 s) at 6.0 s; each reaches the free list then.
	deliveredAt := []float64{6, 4, 3}
	for _, at := range []float64{0, 0.9, 1.2, 2.5, 2.9, 3.2, 3.9, 4.5, 5.9, 100} {
		nw.RunUntil(at)
		if _, _, held := links[0].Occupancy(AToB); (held > 0) != (at < 3) {
			t.Fatalf("t=%v: %d packets held", at, held)
		}
		for i, p := range ps {
			want := 0
			if at >= deliveredAt[i] {
				want = 1
			}
			wantFree(t, nw, p, want, fmt.Sprintf("seq %d at t=%v", i+1, at))
		}
	}
	if len(order) != 3 || order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("delivery order %v, want [3 2 1]", order)
	}
}

// TestFaultDuplicateKeepsOriginal pins the duplicate loop's corner: when
// the queue drops the original, the copies are still cloned from it and
// the probes still see it, and its life ends after the loop.
func TestFaultDuplicateKeepsOriginal(t *testing.T) {
	DebugHooks.PoisonReleased = true
	defer func() { DebugHooks.PoisonReleased = false }()
	nw, h1, _, h2, links := recycleNet(8000, 0.01, 1)
	var got []uint32
	h2.SetReceiver(ReceiverFunc(func(now float64, q *packet.Packet) { got = append(got, q.TCP.Seq) }))
	dups := 0
	nw.SetLinkProbe(func(now float64, kind LinkEventKind, l *Link, dir Direction, p *packet.Packet) {
		if kind == LinkDuplicated {
			dups++
			if p.TCP.Seq != 2 {
				t.Fatalf("duplicate probe saw seq %d, want 2", p.TCP.Seq)
			}
		}
	})
	links[0].SetFault(faultFunc(func(now float64, p *packet.Packet, dir Direction) FaultVerdict {
		if p.TCP.Seq == 2 {
			return FaultVerdict{Duplicate: 2}
		}
		return FaultVerdict{}
	}))
	h1.Send(newPkt(nw, 9)) // fills the queue
	h1.Send(newPkt(nw, 2)) // dropped, and so are both its copies
	nw.RunUntil(100)
	if dups != 2 {
		t.Fatalf("duplicate probes = %d, want 2", dups)
	}
	if st := links[0].Stats(AToB); st.QueueDrop != 3 || st.Duplicated != 2 {
		t.Fatalf("stats %+v, want QueueDrop 3 and Duplicated 2", st)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("delivered %v, want [9]", got)
	}
}

// TestReusedPacketEqualsNewTCP pins that a reissued packet carries exactly
// packet.NewTCP's value, p.TCP included after a tap pointed it elsewhere,
// and ID 0 so Send stamps it afresh.
func TestReusedPacketEqualsNewTCP(t *testing.T) {
	nw, h1, _, _, links := recycleNet(0, 0.01, 0)
	other := packet.TCPHeader{Seq: 12345}
	links[0].AttachTap(TapFunc(func(now float64, p *packet.Packet, dir Direction) TapVerdict {
		p.TCP = &other
		p.Payload = []byte{1}
		return TapVerdict{}
	}))
	p := newPkt(nw, 1)
	h1.Send(p)
	nw.RunUntil(1)
	wantFree(t, nw, p, 1, "after delivery")

	h := packet.TCPHeader{SrcPort: 5, DstPort: 6, Seq: 7, Ack: 8, Flags: packet.FlagACK, Window: 9}
	q := nw.NewTCP(addrH2, addrH1, h, 40)
	if q != p {
		t.Fatal("NewTCP did not reuse the released packet")
	}
	want := packet.NewTCP(addrH2, addrH1, h, 40)
	if q.ID != 0 || q.Src != want.Src || q.Dst != want.Dst || q.TTL != want.TTL || q.Proto != want.Proto ||
		q.Size != want.Size || q.UDP != nil || q.ICMP != nil || q.Payload != nil || *q.TCP != *want.TCP {
		t.Fatalf("reused packet %+v (tcp %+v), want %+v (tcp %+v)", *q, *q.TCP, *want, *want.TCP)
	}
	if q.TCP == &other || other.Seq != 12345 {
		t.Fatal("reuse did not restore the packet's own header")
	}
	h1.Send(q)
	if q.ID != 2 {
		t.Fatalf("reused packet ID = %d, want 2 (stamped by Send)", q.ID)
	}
}

// TestClonesAreNotRecycled pins that a copy of a recyclable packet —
// Clone or a plain struct copy — is an ordinary packet, while CloneTCP's
// copy is recyclable and keeps the source ID, as Clone does.
func TestClonesAreNotRecycled(t *testing.T) {
	nw, h1, _, h2, _ := recycleNet(0, 0.01, 0)
	p := newPkt(nw, 1)
	if !p.Recyclable() {
		t.Fatal("NewTCP's packet is not recyclable")
	}
	p.ID = 42
	c := p.Clone()
	cp := *p
	if c.Recyclable() || (&cp).Recyclable() || packet.NewTCP(addrH1, addrH2, packet.TCPHeader{}, 1).Recyclable() {
		t.Fatal("a copy or a NewTCP packet is recyclable")
	}
	n := nw.CloneTCP(p)
	if !n.Recyclable() || n == p || n.ID != 42 || *n.TCP != *p.TCP || n.TCP == p.TCP {
		t.Fatalf("CloneTCP = %+v, want a recyclable copy with ID 42", *n)
	}
	h2.SetReceiver(ReceiverFunc(func(float64, *packet.Packet) {}))
	h1.Send(c)
	h1.Send(&cp)
	nw.RunUntil(1)
	if len(nw.free) != 0 {
		t.Fatalf("%d plain copies reached the free list", len(nw.free))
	}
}
