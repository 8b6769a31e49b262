package trace

import (
	"math"

	"dui/internal/packet"
	"dui/internal/stats"
)

// LegitConfig describes a population of legitimate TCP flows toward a
// victim prefix. The population is held constant by renewal: when a flow's
// active duration ends, a fresh flow (new 5-tuple) starts immediately —
// matching how Blink's evaluation keeps a stable per-prefix flow count.
type LegitConfig struct {
	Victim packet.Prefix
	// Flows is the number of concurrently active flows.
	Flows int
	// Dur samples each flow's active duration.
	Dur DurationDist
	// PPS is the mean per-flow packet rate (exponential interarrivals).
	// It must comfortably exceed 1/(Blink's 2s inactivity timeout) or
	// legitimate flows get evicted for idleness rather than ending.
	PPS float64
	// Until stops the stream at this time.
	Until float64
	// SrcBase is the first source address; each new flow takes the next.
	SrcBase packet.Addr
}

// Segment size and retransmission timeout floor of every generated flow.
const (
	// mss is the segment payload size in bytes.
	mss int = 1460
	// rtoMin is the RTO floor a MimicRTO storm imitates (seconds,
	// RFC 6298).
	rtoMin float64 = 0.2
	// dstPort is the destination port of every generated flow (HTTPS).
	dstPort uint16 = 443
)

// NewLegit returns a stream of packets from the configured population.
func NewLegit(cfg LegitConfig, rng *stats.RNG) Stream {
	g := &flowStream{cfg: cfg, rng: rng}
	g.scratch.init()
	for i := 0; i < cfg.Flows; i++ {
		f := g.newFlow(0)
		// Desynchronize: first packets spread over one interarrival.
		f.next = rng.Float64() / cfg.PPS
		g.h.push(f)
	}
	return g
}

// flowState is one active flow: the varying fields of its 5-tuple (every
// generated flow is TCP to dstPort), its flow hash, and its sequence and
// timing state. hash is the 5-tuple's FastHash, computed once when the
// flow starts and carried on every Event the flow emits. The record is the
// flow heap's element, so it is kept to 40 bytes.
type flowState struct {
	src, dst packet.Addr
	sport    uint16
	seq      uint32
	hash     uint64
	end      float64
	next     float64
}

// newFlowState returns a flow that has sent nothing yet.
func newFlowState(src, dst packet.Addr, sport uint16, end, next float64) flowState {
	key := packet.FlowKey{Src: src, Dst: dst, SrcPort: sport, DstPort: dstPort, Proto: packet.ProtoTCP}
	return flowState{src: src, dst: dst, sport: sport, hash: key.FastHash(), end: end, next: next}
}

type flowStream struct {
	cfg     LegitConfig
	rng     *stats.RNG
	h       flowHeap
	counter uint32
	scratch packetScratch
}

func (g *flowStream) newFlow(start float64) flowState {
	g.counter++
	src := g.cfg.SrcBase + packet.Addr(g.counter)
	dst := g.cfg.Victim.Nth(uint32(g.rng.IntN(250)) + 1)
	sport := uint16(1024 + g.rng.IntN(60000))
	end := start + g.cfg.Dur.Sample(g.rng)
	return newFlowState(src, dst, sport, end, start+g.rng.Exp(1/g.cfg.PPS))
}

// Next implements Stream. The returned Event borrows the stream's scratch
// packet (see the Stream packet-lifetime rule).
func (g *flowStream) Next() (Event, bool) {
	for {
		if len(g.h) == 0 {
			return Event{}, false
		}
		f := &g.h[0]
		if f.next > g.cfg.Until {
			return Event{}, false
		}
		if f.next > f.end {
			// Flow over: renew in place.
			g.h[0] = g.newFlow(f.next)
			g.h.siftDown(0, len(g.h))
			continue
		}
		// Read f before the sift: f aliases the heap root.
		ev := Event{Time: f.next, Pkt: g.scratch.fill(f, f.seq), FlowHash: f.hash}
		f.seq += uint32(mss)
		f.next = ev.Time + g.rng.Exp(1/g.cfg.PPS)
		g.h.siftDown(0, len(g.h))
		return ev, true
	}
}

// flowHeap is a value-typed binary min-heap on flowState.next with
// hand-inlined sift operations. push follows container/heap's up, and
// siftDown its down — same comparisons, hole instead of swaps — so the
// heap layout, and therefore the emission order even under exact float
// ties, is identical to the historical container/heap implementation
// (TestFlowHeapMatchesContainerHeapUnderTies pins this), while the
// interface round-trips and per-node pointer chasing are gone.
type flowHeap []flowState

// push appends f and sifts it up (container/heap.Push equivalent).
func (h *flowHeap) push(f flowState) {
	*h = append(*h, f)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].next < s[i].next) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// siftDown restores heap order from index i within h[:n]
// (container/heap.down equivalent; Fix(i) for a root whose key changed).
// The element being sifted is held in x while a hole moves down, and the
// smaller child is picked by adding 0 or 1 rather than by a branch the
// random keys would mispredict half the time.
func (h flowHeap) siftDown(i, n int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c+1 >= n {
			if c < n && h[c].next < x.next {
				h[i] = h[c]
				i = c
			}
			break
		}
		d := 0
		if h[c+1].next < h[c].next {
			d = 1
		}
		c += d
		if !(h[c].next < x.next) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// init heapifies (container/heap.Init equivalent).
func (h flowHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

// packetScratch is the stream-owned reusable packet of the zero-allocation
// scheme: every Next() re-fills the same Packet and TCPHeader, so the
// per-packet hot path performs no heap allocation at all. Consumers that
// retain the packet past the next Next() must Clone() it (see Stream).
type packetScratch struct {
	pkt packet.Packet
	tcp packet.TCPHeader
}

func (s *packetScratch) init() {
	s.pkt.TCP = &s.tcp
}

// fill resets the scratch packet to flow f's full-size ACK-flagged data
// segment with sequence number seq, the field values packet.NewTCP would
// produce.
func (s *packetScratch) fill(f *flowState, seq uint32) *packet.Packet {
	s.tcp = packet.TCPHeader{SrcPort: f.sport, DstPort: dstPort, Seq: seq, Flags: packet.FlagACK}
	s.pkt = packet.Packet{
		Src: f.src, Dst: f.dst, TTL: packet.DefaultTTL,
		Proto: packet.ProtoTCP, Size: mss + 40, TCP: &s.tcp,
	}
	return &s.pkt
}

// MaliciousConfig describes the §3.1 attacker's flow pool: flows that are
// always active (so once Blink samples one it is never evicted for
// inactivity) and that can switch to emitting fake TCP retransmissions —
// duplicate sequence numbers — at a chosen time. Sources are spoofed; no
// TCP connection with the victim exists.
type MaliciousConfig struct {
	Victim packet.Prefix
	Flows  int
	// PPS is the per-flow packet rate (near-constant spacing, ±10%
	// jitter — attacker-paced).
	PPS   float64
	Until float64
	// SrcBase allocates spoofed source addresses.
	SrcBase packet.Addr
	// RetransmitFrom is the time from which every packet repeats the
	// flow's sequence number (a continuous fake retransmission storm).
	// Use math.Inf(1) to never trigger, 0 to storm from the start.
	RetransmitFrom float64
	// MimicRTO, when set, paces the post-trigger storm like genuine
	// RTO-driven retransmissions — gaps drawn from {RTOmin, 2·RTOmin,
	// 4·RTOmin} plus residual jitter — instead of the pool's own packet
	// rate. This is the adaptive attacker of the §5 discussion: the
	// RTO floor is a public protocol constant, so an attacker can mimic
	// it without knowing per-flow RTTs when the RTT distribution is
	// dominated by the floor.
	MimicRTO bool
}

// NewMalicious returns the attack pool stream.
func NewMalicious(cfg MaliciousConfig, rng *stats.RNG) Stream {
	m := &malStream{cfg: cfg, rng: rng}
	m.scratch.init()
	for i := 0; i < cfg.Flows; i++ {
		dst := cfg.Victim.Nth(uint32(rng.IntN(250)) + 1)
		sport := uint16(1024 + rng.IntN(60000))
		m.h = append(m.h, newFlowState(cfg.SrcBase+packet.Addr(i+1), dst, sport, math.Inf(1), rng.Float64()/cfg.PPS))
	}
	m.h.init()
	return m
}

type malStream struct {
	cfg     MaliciousConfig
	rng     *stats.RNG
	h       flowHeap
	scratch packetScratch
}

// Next implements Stream. The returned Event borrows the stream's scratch
// packet (see the Stream packet-lifetime rule).
func (m *malStream) Next() (Event, bool) {
	if len(m.h) == 0 {
		return Event{}, false
	}
	f := &m.h[0]
	if f.next > m.cfg.Until {
		return Event{}, false
	}
	at := f.next
	seq := f.seq
	if at >= m.cfg.RetransmitFrom {
		// Fake retransmission: repeat the last-sent sequence number so a
		// data-plane observer flags this packet as a retransmit.
		if seq >= uint32(mss) {
			seq -= uint32(mss)
		}
	} else {
		f.seq += uint32(mss) // look like ordinary traffic
	}
	p := m.scratch.fill(f, seq)
	// The attacker paces her own traffic: near-constant spacing (±10%
	// jitter) so a flow is never idle long enough to be evicted. This is
	// the "always remain active" requirement of §3.1. The adaptive
	// variant paces the storm itself like RTO backoff.
	// The transition into the storm must be paced like an RTO too: the
	// first duplicate's gap is the one the supervisor scrutinizes first.
	if m.cfg.MimicRTO && at+1/m.cfg.PPS >= m.cfg.RetransmitFrom {
		mult := 1.0
		switch r := m.rng.Float64(); {
		case r < 0.3:
			mult = 2
		case r < 0.4:
			mult = 4
		}
		f.next = at + rtoMin*mult + 0.25*m.rng.Float64()
	} else {
		f.next = at + m.rng.Uniform(0.9, 1.1)/m.cfg.PPS
	}
	h := f.hash // f aliases the heap root the sift moves
	m.h.siftDown(0, len(m.h))
	return Event{Time: at, Pkt: p, FlowHash: h}, true
}
