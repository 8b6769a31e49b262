package audit

import (
	"bytes"
	"strings"
	"testing"

	"dui/internal/blink"
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
	"dui/internal/trace"
)

// lineNet mirrors the netsim test topology: h1 -- r1 -- r2 -- h2.
func lineNet(rateBps, delay float64, qcap int) (*netsim.Network, *netsim.Node, *netsim.Node, []*netsim.Link) {
	nw := netsim.New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	r1 := nw.AddRouter("r1")
	r2 := nw.AddRouter("r2")
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	links := []*netsim.Link{
		nw.Connect(h1, r1, rateBps, delay, qcap),
		nw.Connect(r1, r2, rateBps, delay, qcap),
		nw.Connect(r2, h2, rateBps, delay, qcap),
	}
	nw.ComputeRoutes()
	return nw, h1, h2, links
}

// TestAuditedQueueBuildupAndDrop is the audited run of the existing
// netsim TestQueueBuildupAndDrop scenario: drop-tail loss under a burst,
// with the invariant checker attached and the event trace recorded.
func TestAuditedQueueBuildupAndDrop(t *testing.T) {
	nw, h1, h2, links := lineNet(1e5, 0.001, 2)
	rec := NewRecorder()
	a := AttachNetwork(nw, rec)
	delivered := 0
	h2.SetReceiver(netsim.ReceiverFunc(func(now float64, p *packet.Packet) { delivered++ }))
	for i := 0; i < 5; i++ {
		h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{Seq: uint32(i)}, 1000))
	}
	nw.RunUntil(10)
	if err := a.CheckDrained(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	s := links[0].Stats(netsim.AToB)
	if s.QueueDrop == 0 || s.Sent != 5 {
		t.Fatalf("link stats = %+v", s)
	}
	// The trace carries one "sent" per enqueue plus matching outcomes.
	sent, drops := 0, 0
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case "sent":
			sent++
		case "queuedrop":
			drops++
		}
	}
	if sent == 0 || drops == 0 {
		t.Fatalf("trace recorded sent=%d queuedrop=%d, want both > 0 (total %d events)", sent, drops, rec.Len())
	}
}

// TestAuditedLinkFailure is the audited run of the existing netsim
// TestLinkFailureDropsTraffic scenario, plus a queued backlog at the
// failure instant — the exact case the link-failure bugfix covers.
func TestAuditedLinkFailure(t *testing.T) {
	nw, h1, h2, links := lineNet(1e5, 0.001, 0)
	rec := NewRecorder()
	a := AttachNetwork(nw, rec)
	delivered := 0
	h2.SetReceiver(netsim.ReceiverFunc(func(now float64, p *packet.Packet) { delivered++ }))
	send := func() { h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{}, 1000)) }
	// A burst that is still queued when the link fails at 0.1 (each packet
	// serializes for 80 ms), plus one packet sent while down.
	for i := 0; i < 4; i++ {
		send()
	}
	nw.FailLink(links[0], 0.1)
	nw.Engine().At(1.0, send)
	nw.RunUntil(2)
	if err := a.CheckDrained(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	faildrops := 0
	for _, ev := range rec.Events() {
		if ev.Kind == "faildrop" {
			faildrops++
		}
	}
	if faildrops != 3 {
		t.Fatalf("trace recorded %d faildrop events, want 3 (queued at the failure)", faildrops)
	}
}

// TestAuditCatchesInjectedInvariantBug proves the checker is live: a
// deliberately injected bug — shrinking a link's queue capacity below its
// current occupancy mid-run, so the queue-bounds invariant breaks — must
// be reported, not silently survived.
func TestAuditCatchesInjectedInvariantBug(t *testing.T) {
	nw, h1, h2, links := lineNet(1e5, 0.001, 0)
	a := AttachNetwork(nw, nil)
	h2.SetReceiver(netsim.ReceiverFunc(func(now float64, p *packet.Packet) {}))
	for i := 0; i < 6; i++ {
		h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{Seq: uint32(i)}, 1000))
	}
	// Six packets are now queued on the unbounded first hop; capping it at
	// 1 behind the simulator's back violates 0 <= qlen <= QueueCap.
	nw.Engine().At(0.01, func() { links[0].QueueCap = 1 })
	nw.RunUntil(10)
	err := a.Check()
	if err == nil {
		t.Fatal("audit missed the injected queue-bounds violation")
	}
	if !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("unexpected violation report: %v", err)
	}
}

// TestAuditTapDelayAccounting pins send-layer conservation through a
// delaying tap chain: while a packet sits in tap-imposed delay it is
// neither dropped nor sent, and the occupancy term accounts for it.
func TestAuditTapDelayAccounting(t *testing.T) {
	nw, h1, h2, links := lineNet(0, 0.001, 0)
	a := AttachNetwork(nw, nil)
	h2.SetReceiver(netsim.ReceiverFunc(func(now float64, p *packet.Packet) {}))
	links[1].AttachTap(netsim.TapFunc(func(now float64, p *packet.Packet, dir netsim.Direction) netsim.TapVerdict {
		return netsim.TapVerdict{Delay: 0.2}
	}))
	links[1].AttachTap(netsim.TapFunc(func(now float64, p *packet.Packet, dir netsim.Direction) netsim.TapVerdict {
		return netsim.TapVerdict{Delay: 0.3}
	}))
	h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{}, 100))
	nw.RunUntil(0.3) // mid-delay: the packet is tap-held on links[1]
	if _, _, held := links[1].Occupancy(netsim.AToB); held != 1 {
		t.Fatalf("tapHeld = %d, want 1 while the tap delay runs", held)
	}
	if err := a.Check(); err != nil {
		t.Fatalf("audit mid-delay: %v", err)
	}
	nw.RunUntil(2)
	if err := a.CheckDrained(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if s := links[1].Stats(netsim.AToB); s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMonitorAuditCleanRun feeds a one-prefix bank a mixed legitimate/malicious
// workload (including retransmission storms) and requires the selector
// invariants to hold throughout.
func TestMonitorAuditCleanRun(t *testing.T) {
	m := blink.NewMonitorBank(1, blink.Config{Cells: 16})
	rec := NewRecorder()
	a := AttachMonitor(m, rec)
	rng := stats.NewRNG(7)
	legit := trace.NewLegit(trace.LegitConfig{
		Victim: blink.Victim, Flows: 80, Dur: trace.ExpDuration{MeanSec: 4},
		PPS: 4, Until: 120, SrcBase: blink.LegitSrcBase,
	}, rng.Child())
	mal := trace.NewMalicious(trace.MaliciousConfig{
		Victim: blink.Victim, Flows: 10, PPS: 4, Until: 120,
		SrcBase: blink.MalSrcBase, RetransmitFrom: 60,
	}, rng.Child())
	st := trace.Merge(legit, mal)
	now := 0.0
	steps := 0
	for {
		ev, ok := st.Next()
		if !ok {
			break
		}
		now = ev.Time
		m.Feed(0, now, ev.Pkt)
		if steps++; steps%1000 == 0 {
			if err := a.Check(now); err != nil {
				t.Fatalf("audit at t=%.3f: %v", now, err)
			}
		}
	}
	if err := a.Check(now); err != nil {
		t.Fatalf("audit at end: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("no selector events recorded")
	}
}

// TestTraceRoundTripAndDiff pins the JSONL encoding (byte-exact float
// round-trip) and the first-divergence report.
func TestTraceRoundTripAndDiff(t *testing.T) {
	r1 := NewRecorder()
	r2 := NewRecorder()
	r1.Record(0.1, KindSample, 3, 0xdead)
	r1.Record(0.30000000000000004, KindRetrans, 3, 0xdead) // exercises shortest-round-trip floats
	r2.Record(510, KindResetEvict, 9, 0xbeef)
	events := Flatten([]*Recorder{r1, r2})
	if events[2].Run != 1 || events[2].Seq != 2 {
		t.Fatalf("flatten stamped %+v", events[2])
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, diverged := Diff(events, back); diverged {
		t.Fatalf("JSONL round trip not identity:\n%v\n%v", events, back)
	}

	mut := append([]Event{}, events...)
	mut[1].Flow++
	if idx, diverged := Diff(events, mut); !diverged || idx != 1 {
		t.Fatalf("Diff = (%d, %v), want (1, true)", idx, diverged)
	}
	if idx, diverged := Diff(events, events[:2]); !diverged || idx != 2 {
		t.Fatalf("length-mismatch Diff = (%d, %v), want (2, true)", idx, diverged)
	}
}

// TestMonitorAuditCatchesTamperedCell proves the selector checker is
// live: recreating a selector state whose counted flags cannot match the
// incremental count must be reported. The tampering goes through the only
// public mutation path (Feed) plus a fabricated "now" far in the past,
// which is exactly the misuse the checker guards against.
func TestMonitorAuditCatchesTamperedCell(t *testing.T) {
	m := blink.NewMonitorBank(1, blink.Config{Cells: 4})
	a := AttachMonitor(m, nil)
	// One retransmitting flow: counted, in-window.
	p := packet.NewTCP(packet.MustParseAddr("30.0.0.1"), blink.Victim.Nth(1),
		packet.TCPHeader{SrcPort: 9, DstPort: 443, Seq: 100}, 1500)
	m.Feed(0, 1.0, p)
	m.Feed(0, 1.1, p) // seq repeats -> retransmission, counted
	m.Feed(0, 1.2, p)
	// Checking "at" a time before the retransmission makes LastRetr appear
	// out of causal order with the claimed window membership.
	if err := a.Check(0.5); err == nil {
		t.Fatal("audit accepted a now earlier than recorded retransmissions")
	}
}
