package netsim_test

import (
	"math"
	"testing"

	"dui/internal/audit"
	. "dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
)

// lineNet builds h1 -- r1 -- r2 -- h2 with the given link parameters and
// computed routes. DUI_AUDIT (parsed by the one shared parser in
// internal/audit) turns the engine's causality audit on for every test
// network — the external test package exists so these tests can reach it.
func lineNet(rateBps, delay float64, qcap int) (*Network, *Node, *Node, []*Link) {
	nw := New()
	nw.Engine().SetAudit(audit.EnabledFromEnv())
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	r1 := nw.AddRouter("r1")
	r2 := nw.AddRouter("r2")
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	links := []*Link{
		nw.Connect(h1, r1, rateBps, delay, qcap),
		nw.Connect(r1, r2, rateBps, delay, qcap),
		nw.Connect(r2, h2, rateBps, delay, qcap),
	}
	nw.ComputeRoutes()
	return nw, h1, h2, links
}

func TestEndToEndDelivery(t *testing.T) {
	nw, h1, h2, _ := lineNet(0, 0.01, 0)
	var got []*packet.Packet
	var at float64
	h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) {
		got = append(got, p)
		at = now
	}))
	p := packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 1}, 100)
	h1.Send(p)
	nw.RunUntil(1)
	if len(got) != 1 {
		t.Fatalf("delivered %d packets", len(got))
	}
	if math.Abs(at-0.03) > 1e-9 {
		t.Fatalf("delivery at %v, want 0.03 (3 hops x 10ms)", at)
	}
	// TTL decremented once per transit router.
	if got[0].TTL != packet.DefaultTTL-2 {
		t.Fatalf("TTL = %d", got[0].TTL)
	}
}

func TestSerializationDelay(t *testing.T) {
	// 1 Mbps, 1000-byte packet -> 8 ms per hop serialization + 1 ms prop.
	nw, h1, h2, _ := lineNet(1e6, 0.001, 0)
	var at float64
	h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) { at = now }))
	h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{}, 1000))
	nw.RunUntil(1)
	if math.Abs(at-3*(0.008+0.001)) > 1e-9 {
		t.Fatalf("delivery at %v", at)
	}
}

func TestQueueBuildupAndDrop(t *testing.T) {
	// Queue capacity 2: burst of 5 back-to-back packets on a slow link
	// must lose some to drop-tail.
	nw, h1, h2, links := lineNet(1e5, 0.001, 2)
	delivered := 0
	h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) { delivered++ }))
	drops := 0
	nw.SetLinkProbe(func(now float64, kind LinkEventKind, l *Link, dir Direction, p *packet.Packet) {
		if kind == LinkQueueDrop {
			drops++
		}
	})
	for i := 0; i < 5; i++ {
		h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{Seq: uint32(i)}, 1000))
	}
	nw.RunUntil(10)
	if drops == 0 {
		t.Fatal("expected drop-tail losses")
	}
	if delivered+drops != 5 {
		t.Fatalf("delivered=%d drops=%d", delivered, drops)
	}
	s := links[0].Stats(AToB)
	if s.QueueDrop == 0 || s.Sent != 5 {
		t.Fatalf("link stats = %+v", s)
	}
}

func TestLinkFailureDropsTraffic(t *testing.T) {
	nw, h1, h2, links := lineNet(0, 0.001, 0)
	delivered := 0
	h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) { delivered++ }))
	nw.FailLink(links[1], 0.5)
	send := func() { h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{}, 100)) }
	nw.Engine().At(0.1, send)
	nw.Engine().At(1.0, send)
	nw.RunUntil(2)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (one before failure)", delivered)
	}
	if links[1].Stats(AToB).DownDrop != 1 {
		t.Fatalf("down drops = %d", links[1].Stats(AToB).DownDrop)
	}
}

func TestRoutingPrefersLowDelayAndReroutes(t *testing.T) {
	// Triangle: h1-r1, r1-r2 (fast), r1-r3-r2 (slow), h2 at r2.
	nw := New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	r1 := nw.AddRouter("r1")
	r2 := nw.AddRouter("r2")
	r3 := nw.AddRouter("r3")
	nw.Connect(h1, r1, 0, 0.001, 0)
	nw.Connect(r1, r2, 0, 0.002, 0)
	nw.Connect(r1, r3, 0, 0.010, 0)
	nw.Connect(r3, r2, 0, 0.010, 0)
	nw.Connect(r2, h2, 0, 0.001, 0)
	nw.ComputeRoutes()
	if nh, _ := r1.Lookup(h2.Addr); nh != r2 {
		t.Fatalf("r1 next hop = %v", nh.Name())
	}
	// Operator rerouting (config manipulation) moves traffic to r3.
	r1.AddRoute(packet.Prefix{Addr: h2.Addr, Bits: 32}, r3)
	var path []string
	r3.AttachProgram(programFunc(func(now float64, p *packet.Packet, n *Node) bool {
		path = append(path, n.Name())
		return true
	}))
	h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{}, 100))
	nw.RunUntil(1)
	if len(path) != 1 {
		t.Fatalf("packet did not transit r3 after reroute")
	}
}

type programFunc func(now float64, p *packet.Packet, n *Node) bool

func (f programFunc) OnPacket(now float64, p *packet.Packet, n *Node) bool { return f(now, p, n) }

func TestLongestPrefixMatchWins(t *testing.T) {
	nw := New()
	h := nw.AddHost("h", packet.MustParseAddr("10.0.0.1"))
	r1 := nw.AddRouter("r1")
	r2 := nw.AddRouter("r2")
	nw.Connect(h, r1, 0, 0.001, 0)
	nw.Connect(h, r2, 0, 0.001, 0)
	h.AddRoute(packet.MustParsePrefix("0.0.0.0/0"), r1)
	h.AddRoute(packet.MustParsePrefix("10.9.0.0/16"), r2)
	if nh, _ := h.Lookup(packet.MustParseAddr("10.9.1.1")); nh != r2 {
		t.Fatal("specific route ignored")
	}
	if nh, _ := h.Lookup(packet.MustParseAddr("8.8.8.8")); nh != r1 {
		t.Fatal("default route ignored")
	}
}

func TestTTLExpiryGeneratesICMP(t *testing.T) {
	nw, h1, h2, links := lineNet(0, 0.001, 0)
	var icmp *packet.Packet
	h1.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) {
		if p.ICMP != nil {
			icmp = p
		}
	}))
	probe := packet.NewUDP(h1.Addr, h2.Addr, packet.UDPHeader{SrcPort: 33434, DstPort: 33435}, 60)
	probe.TTL = 1
	h1.Send(probe)
	nw.RunUntil(1)
	if icmp == nil {
		t.Fatal("no time-exceeded reply")
	}
	_, r1 := links[0].Nodes()
	if icmp.Src != r1.Addr {
		t.Fatalf("reply from %v, want r1 %v", icmp.Src, r1.Addr)
	}
	if icmp.ICMP.Type != packet.ICMPTimeExceeded || icmp.ICMP.OrigDst != h2.Addr {
		t.Fatalf("bad reply: %+v", icmp.ICMP)
	}
	if icmp.ICMP.ID != 33434 {
		t.Fatalf("probe ports not quoted: %+v", icmp.ICMP)
	}
}

func TestMitMTapDropModifyDelay(t *testing.T) {
	nw, h1, h2, links := lineNet(0, 0.001, 0)
	var got []*packet.Packet
	var at []float64
	h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) {
		got = append(got, p)
		at = append(at, now)
	}))
	mode := "pass"
	links[1].AttachTap(TapFunc(func(now float64, p *packet.Packet, dir Direction) TapVerdict {
		switch mode {
		case "drop":
			return TapVerdict{Drop: true}
		case "modify":
			q := p.Clone()
			q.TCP.Window = 1
			return TapVerdict{Replace: q}
		case "delay":
			return TapVerdict{Delay: 0.5}
		}
		return TapVerdict{}
	}))
	send := func(seq uint32) {
		h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{Seq: seq, Window: 100}, 100))
	}
	send(1)
	nw.RunUntil(1)
	mode = "drop"
	send(2)
	nw.RunUntil(2)
	mode = "modify"
	send(3)
	nw.RunUntil(3)
	mode = "delay"
	nw.Engine().At(3.0, func() { send(4) })
	nw.RunUntil(5)
	if len(got) != 3 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].TCP.Window != 100 {
		t.Fatal("pass-through modified")
	}
	if got[1].TCP.Seq != 3 || got[1].TCP.Window != 1 {
		t.Fatalf("modification lost: %+v", got[1].TCP)
	}
	if got[2].TCP.Seq != 4 || at[2] < 3.5 {
		t.Fatalf("delay not applied: at %v", at[2])
	}
	if links[1].Stats(AToB).TapDrop != 1 {
		t.Fatal("tap drop not counted")
	}
}

func TestMitMInjection(t *testing.T) {
	nw, _, h2, links := lineNet(0, 0.001, 0)
	var got []*packet.Packet
	h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) { got = append(got, p) }))
	inj := links[1].AttachTap(TapFunc(func(now float64, p *packet.Packet, dir Direction) TapVerdict {
		return TapVerdict{}
	}))
	// Inject a spoofed packet claiming to come from h1.
	sp := packet.NewTCP(packet.MustParseAddr("10.0.0.1"), h2.Addr, packet.TCPHeader{Seq: 777}, 100)
	sp.ID = 99999
	nw.Engine().At(0.1, func() { inj.Inject(sp, AToB) })
	nw.RunUntil(1)
	if len(got) != 1 || got[0].TCP.Seq != 777 {
		t.Fatalf("injection failed: %v", got)
	}
}

func TestHostDoesNotForwardTransit(t *testing.T) {
	// h1 -- hm -- h2 with hm a host: transit traffic must die at hm.
	nw := New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	hm := nw.AddHost("hm", packet.MustParseAddr("10.0.0.2"))
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.0.3"))
	nw.Connect(h1, hm, 0, 0.001, 0)
	nw.Connect(hm, h2, 0, 0.001, 0)
	h1.AddRoute(packet.MustParsePrefix("0.0.0.0/0"), hm)
	hm.AddRoute(packet.MustParsePrefix("0.0.0.0/0"), h2)
	delivered := 0
	h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) { delivered++ }))
	h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{}, 100))
	nw.RunUntil(1)
	if delivered != 0 {
		t.Fatal("host forwarded transit traffic")
	}
}

func TestNoRouteCounted(t *testing.T) {
	nw := New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	r1 := nw.AddRouter("r1")
	nw.Connect(h1, r1, 0, 0.001, 0)
	h1.AddRoute(packet.MustParsePrefix("0.0.0.0/0"), r1)
	h1.Send(packet.NewTCP(h1.Addr, packet.MustParseAddr("99.9.9.9"), packet.TCPHeader{}, 100))
	nw.RunUntil(1)
	if r1.Stats().NoRoute != 1 {
		t.Fatalf("NoRoute = %d", r1.Stats().NoRoute)
	}
}

func TestDuplicateHostAddrPanics(t *testing.T) {
	nw := New()
	nw.AddHost("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw.AddHost("b", 1)
}

func TestDeterministicReplay(t *testing.T) {
	run := func() uint64 {
		nw, h1, h2, _ := lineNet(1e6, 0.001, 4)
		var sum uint64
		h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) { sum += p.ID }))
		rng := stats.NewRNG(77)
		for i := 0; i < 200; i++ {
			at := rng.Float64() * 2
			seq := uint32(i)
			nw.Engine().At(at, func() {
				h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{Seq: seq}, 500))
			})
		}
		nw.RunUntil(5)
		return sum
	}
	if run() != run() {
		t.Fatal("simulation not deterministic")
	}
}
