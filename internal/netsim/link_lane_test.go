package netsim_test

import (
	"fmt"
	"testing"

	. "dui/internal/netsim"
	"dui/internal/packet"
)

// linkTrace runs one traffic pattern — a serialized burst, a mid-queue
// link failure and recovery (which forces the lane fallback path, since
// new enqueue times regress behind stale lane entries), and a second
// burst — and returns every link probe observation plus final stats as
// one comparable string.
func linkTrace(t *testing.T, lanes bool) string {
	t.Helper()
	DebugHooks.DisableLinkLanes = !lanes
	defer func() { DebugHooks.DisableLinkLanes = false }()

	nw, h1, h2, links := lineNet(1e5, 0.01, 3)
	out := ""
	nw.SetLinkProbe(func(now float64, kind LinkEventKind, l *Link, dir Direction, p *packet.Packet) {
		id := uint64(0)
		if p != nil {
			id = p.ID
		}
		out += fmt.Sprintf("%.9f %s l%d d%d p%d\n", now, kind, l.Index(), dir, id)
	})
	h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) {
		out += fmt.Sprintf("%.9f recv p%d\n", now, p.ID)
	}))
	send := func(n int) {
		for i := 0; i < n; i++ {
			h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{Seq: uint32(i)}, 1000))
		}
	}
	send(5) // burst: 3-packet queue cap, so two drop-tail losses too
	nw.Engine().At(0.05, func() { links[0].SetUp(false) })
	nw.Engine().At(0.10, func() { links[0].SetUp(true) })
	nw.Engine().At(0.20, func() { send(4) }) // post-recovery: fallback path
	nw.RunUntil(20)
	for _, l := range links {
		for _, d := range []Direction{AToB, BToA} {
			out += fmt.Sprintf("l%d d%d %+v\n", l.Index(), d, l.Stats(d))
		}
	}
	out += fmt.Sprintf("executed %d now %.9f pending %d\n",
		nw.Engine().Executed(), nw.Now(), nw.Engine().Pending())
	return out
}

// Link lanes are an ordering-transparent optimization: the probe-level
// event sequence, all counters, and the executed-event count must be
// byte-identical with lanes on and off.
func TestLinkLanesTraceIdenticalToClosures(t *testing.T) {
	ref := linkTrace(t, false)
	if got := linkTrace(t, true); got != ref {
		t.Fatalf("trace diverges with lanes on:\n--- lanes off ---\n%s--- lanes on ---\n%s", ref, got)
	}
}
