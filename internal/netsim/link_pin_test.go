package netsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	. "dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
)

// linkPinDigest is the sha256 of pinnedLinkTrace over seeds 1..linkPinSeeds.
// It was recorded when link serialization-done was still a scheduled
// engine event, so it pins the observable link behaviour — probe order,
// occupancy and pending counts at every settle point, final counters —
// against any change to how that transition is represented.
const (
	linkPinSeeds  = 48
	linkPinDigest = "95b88e139d30c930d87e002f99a53e1176140cdac2f5d6816aa703b42918fcce"
)

// linkPinRun is the state of one seeded link workload.
type linkPinRun struct {
	nw    *Network
	rng   *stats.RNG
	links []*Link
	out   hash.Hash
	// busy mirrors each direction's serialization horizon (index
	// 2·link+dir) with the link model's own float expressions, so
	// failures and samples can be scheduled at a packet's exact
	// serialization-done and deliver times.
	busy     []float64
	prevBusy []float64
	horizons []float64
}

func (r *linkPinRun) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

// sample records every direction's occupancy and the engine's pending
// count — each read is a settle point for lazily applied transitions.
func (r *linkPinRun) sample(tag string) {
	r.printf("%s %.12g", tag, r.nw.Now())
	for _, l := range r.links {
		for _, d := range []Direction{AToB, BToA} {
			q, w, h := l.Occupancy(d)
			r.printf(" %d/%d/%d", q, w, h)
		}
	}
	r.printf(" pending %d\n", r.nw.Engine().Pending())
}

// fail takes l down (mirroring the horizon reset when it was up) and
// schedules its recovery.
func (r *linkPinRun) fail(l *Link, tag string) {
	if l.Up() {
		r.busy[2*l.Index()] = r.nw.Now()
		r.busy[2*l.Index()+1] = r.nw.Now()
	}
	l.SetUp(false)
	r.sample("fail-" + tag)
	r.nw.Engine().After(r.rng.Uniform(0, 0.02), func() {
		l.SetUp(true)
		r.sample("recover")
	})
}

// at schedules fn at t either now (so it precedes any transition enqueued
// later at the same instant) or through a zero-delay hop (so it follows
// transitions already enqueued at t).
func (r *linkPinRun) at(t float64, late bool, fn func()) {
	eng := r.nw.Engine()
	if !late {
		eng.At(t, fn)
		return
	}
	eng.After(0, func() { eng.At(t, fn) })
}

// probe logs every link event with the affected direction's occupancy
// and, on LinkSent, derives the packet's serialization-done (tw) and
// deliver (td) times to aim failures, samples and run horizons at them.
func (r *linkPinRun) probe(now float64, kind LinkEventKind, l *Link, dir Direction, p *packet.Packet) {
	id := uint64(0)
	if p != nil {
		id = p.ID
	}
	q, w, h := l.Occupancy(dir)
	r.printf("%.12g %s l%d d%d p%d %d/%d/%d\n", now, kind, l.Index(), dir, id, q, w, h)
	k := 2*l.Index() + int(dir)
	switch kind {
	case LinkQueueDrop, LinkDownDrop:
		r.busy[k] = r.prevBusy[k]
	case LinkSent:
		r.prevBusy[k] = r.busy[k]
		start := now
		if r.busy[k] > start {
			start = r.busy[k]
		}
		tx := 0.0
		if l.RateBps > 0 {
			tx = float64(p.Size) * 8 / l.RateBps
		}
		r.busy[k] = start + tx
		tw, td := start+tx, start+tx+l.Delay
		switch x := r.rng.Float64(); {
		case x < 0.04:
			r.at(tw, x < 0.02, func() { r.fail(l, "wire") })
		case x < 0.08:
			r.at(td, x < 0.06, func() { r.fail(l, "deliver") })
		case x < 0.20:
			r.at(tw, x < 0.14, func() { r.sample("at-wire") })
		case x < 0.30:
			r.at(td, x < 0.25, func() { r.sample("at-deliver") })
		case x < 0.36:
			r.horizons = append(r.horizons, (tw+td)/2)
		case x < 0.40:
			r.horizons = append(r.horizons, tw)
		}
	}
}

func (r *linkPinRun) send(from, to *Node, tag string) {
	size := 40 + r.rng.IntN(1460)
	p := packet.NewTCP(from.Addr, to.Addr, packet.TCPHeader{Seq: uint32(r.rng.IntN(1 << 20))}, size)
	from.Send(p)
	r.printf("send-%s %.12g p%d\n", tag, r.nw.Now(), p.ID)
}

// pinnedLinkTrace runs one seeded workload — rate-0 and rate-limited
// links, drop-tail queues, a delaying and dropping tap, a gray-failure
// fault stage with duplicates, random and exactly-aimed failures with
// recovery, setup-time sends and link flips between runs, and run
// horizons cut between packets' wire and deliver times — and writes its
// full observable trace to out.
func pinnedLinkTrace(seed uint64, out hash.Hash) {
	rng := stats.NewRNG(seed)
	nw := New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	r1 := nw.AddRouter("r1")
	r2 := nw.AddRouter("r2")
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	rates := []float64{0, 2e5, 1e6}
	delays := []float64{0, 0.001, 0.01}
	caps := []int{0, 2, 4}
	var links []*Link
	for _, pair := range [][2]*Node{{h1, r1}, {r1, r2}, {r2, h2}} {
		links = append(links, nw.Connect(pair[0], pair[1],
			rates[rng.IntN(len(rates))], delays[rng.IntN(len(delays))], caps[rng.IntN(len(caps))]))
	}
	nw.ComputeRoutes()
	r := &linkPinRun{nw: nw, rng: rng, links: links, out: out,
		busy: make([]float64, 2*len(links)), prevBusy: make([]float64, 2*len(links))}
	r.printf("seed %d", seed)
	for _, l := range links {
		r.printf(" [%g %g %d]", l.RateBps, l.Delay, l.QueueCap)
	}
	r.printf("\n")
	nw.SetLinkProbe(r.probe)

	tapped := links[rng.IntN(len(links))]
	tapped.AttachTap(TapFunc(func(now float64, p *packet.Packet, dir Direction) TapVerdict {
		switch x := rng.Float64(); {
		case x < 0.03:
			return TapVerdict{Drop: true}
		case x < 0.15:
			return TapVerdict{Delay: rng.Uniform(0, 0.01)}
		}
		return TapVerdict{}
	}))
	faulty := links[rng.IntN(len(links))]
	faulty.SetFault(faultFunc(func(now float64, p *packet.Packet, dir Direction) FaultVerdict {
		var v FaultVerdict
		switch x := rng.Float64(); {
		case x < 0.03:
			v.Drop = true
		case x < 0.15:
			v.Duplicate = 1 + rng.IntN(2)
		case x < 0.25:
			v.Delay = rng.Uniform(0, 0.005)
		}
		return v
	}))
	h1.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) {
		r.printf("h1 recv %.12g p%d\n", now, p.ID)
	}))
	h2.SetReceiver(ReceiverFunc(func(now float64, p *packet.Packet) {
		r.printf("h2 recv %.12g p%d\n", now, p.ID)
		if rng.Bool(0.3) {
			r.send(h2, h1, "echo")
		}
	}))

	eng := nw.Engine()
	for i := 0; i < 60; i++ {
		from, to := h1, h2
		if rng.Bool(0.25) {
			from, to = h2, h1
		}
		eng.At(rng.Uniform(0, 0.5), func() { r.send(from, to, "sched") })
	}
	for i := 0; i < 3; i++ {
		l := links[rng.IntN(len(links))]
		eng.At(rng.Uniform(0, 0.5), func() { r.fail(l, "random") })
	}
	for i := 0; i < 4; i++ {
		r.send(h1, h2, "setup")
	}
	r.sample("setup")

	for step := 0; step < 40; step++ {
		h, pick := nw.Now()+rng.Uniform(0, 0.03), -1
		for j, c := range r.horizons {
			if c > nw.Now() && c < h {
				h, pick = c, j
			}
		}
		if pick >= 0 {
			r.horizons[pick] = -1
		}
		if rng.Bool(0.05) {
			h = nw.Now() - 0.001 // a horizon behind the clock runs nothing
		}
		nw.RunUntil(h)
		r.sample("run")
		switch x := rng.Float64(); {
		case x < 0.15:
			r.send(h1, h2, "between")
			r.sample("between")
		case x < 0.20:
			l := links[rng.IntN(len(links))]
			if l.Up() {
				r.fail(l, "between")
			} else {
				l.SetUp(true)
				r.sample("up-between")
			}
		}
	}
	eng.Run()
	r.sample("final")
	for _, l := range links {
		for _, d := range []Direction{AToB, BToA} {
			r.printf("l%d d%d %+v\n", l.Index(), d, l.Stats(d))
		}
	}
	for _, n := range nw.Nodes() {
		r.printf("%s %+v\n", n.Name(), n.Stats())
	}
}

// TestLinkBehaviourPinned hashes the seeded link workloads with link
// lanes on and off; both must produce the pinned digest.
func TestLinkBehaviourPinned(t *testing.T) {
	for _, lanes := range []bool{true, false} {
		DebugHooks.DisableLinkLanes = !lanes
		h := sha256.New()
		for seed := uint64(1); seed <= linkPinSeeds; seed++ {
			pinnedLinkTrace(seed, h)
		}
		DebugHooks.DisableLinkLanes = false
		if got := hex.EncodeToString(h.Sum(nil)); got != linkPinDigest {
			t.Errorf("lanes=%v: link trace digest %s, pinned %s", lanes, got, linkPinDigest)
		}
	}
}
