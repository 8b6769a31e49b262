package tcpflow

import (
	"cmp"
	"math"
	"slices"

	"dui/internal/netsim"
	"dui/internal/packet"
)

// Fixed parameters of every TCP flow.
const (
	// mss is the segment payload size in bytes.
	mss int = 1460
	// maxWindow caps the window in segments.
	maxWindow float64 = 64
	// rtoMin and rtoInit bound the retransmission timeout (seconds,
	// RFC 6298).
	rtoMin  float64 = 0.2
	rtoInit float64 = 1.0
)

// Config parameterizes a TCP flow. The zero value is completed by
// defaults() — initial window 10 segments, 64 KiB receive window.
type Config struct {
	// Key is the forward (data) direction 5-tuple; ACKs travel on
	// Key.Reverse().
	Key packet.FlowKey
	// Window is the send window in segments. With AIMD enabled it is the
	// initial congestion window; otherwise it is fixed.
	Window float64
	// AIMD enables additive-increase/multiplicative-decrease on the
	// window (increase 1/W per ACKed segment, halve on loss).
	AIMD bool
	// TotalBytes ends the flow after this much data is ACKed; 0 means the
	// flow runs until Stop.
	TotalBytes int64
	// Pace, if positive, limits sending to this many segments per second
	// (models application-limited flows; most trace flows are not
	// window-limited).
	Pace float64
	// RcvWindow is the receiver's advertised window in bytes (flow
	// control). It is carried in every ACK's Window field and caps the
	// sender's flight; 0 means the classic 64 KiB maximum.
	RcvWindow int
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 10
	}
	if c.RcvWindow <= 0 || c.RcvWindow > 65535 {
		c.RcvWindow = 65535
	}
}

// Stats summarizes a flow's life so far.
type Stats struct {
	SentSegments    uint64
	Retransmissions uint64
	AckedBytes      int64
	Completed       bool
	CompletionTime  float64
	SRTT            float64
	RTO             float64
}

// Sender is the data-sending half of a flow.
type Sender struct {
	net  *netsim.Network
	node *netsim.Node
	cfg  Config

	una, nxt   int64 // bytes: oldest unACKed, next to send
	inFlight   flight
	window     float64
	dupAcks    int
	srtt, rttv float64
	rwnd       int64 // latest advertised receive window (bytes)
	rto        float64
	backoff    int
	stopped    bool
	stats      Stats

	// OnComplete, if set, fires when TotalBytes are ACKed.
	OnComplete func(now float64)
	paceNext   float64
	paceWake   float64 // the pacing instant the last wake-up was scheduled for
	repump     func()  // s.pump, bound once so pacing re-arms allocate nothing

	// The RTO timer. Every arm reserves the engine key its own event
	// would have had, but only the latest arm can fire, so arms are not
	// queued one by one: the sender queues a wake-up at an arm's key only
	// when no wake-up already queued comes at or before the live arm, and
	// a wake-up that finds a superseded arm moves on to the live one.
	// That is one wake-up per RTO period, not one event per segment
	// (DESIGN.md §6.6).
	rtoKey   netsim.Key   // the latest arm
	rtoLive  bool         // the latest arm may still fire: not fired, superseded or cancelled
	rtoWakes []netsim.Key // keys with a wake-up queued, in descending order: the last fires next
	rtoStale keyQueue     // retired arms with no wake-up, counted by Reserved until they pass
	rtoFn    func()       // s.rtoFired, bound once
}

// keyQueue holds reserved keys in ascending order until the engine passes
// them. Keys arrive nearly in order (a deadline falls behind an earlier
// one only when the timeout shrinks), so push sorts from the back.
type keyQueue struct {
	keys []netsim.Key // keys[lo:] are outstanding; keys[:lo] have passed
	lo   int
}

func (q *keyQueue) push(k netsim.Key) {
	if len(q.keys) == cap(q.keys) && q.lo > 0 {
		// Compact over the passed prefix instead of growing.
		q.keys, q.lo = q.keys[:copy(q.keys, q.keys[q.lo:])], 0
	}
	q.keys = append(q.keys, k)
	i := len(q.keys) - 1
	for ; i > q.lo && k.Before(q.keys[i-1]); i-- {
		q.keys[i] = q.keys[i-1]
	}
	q.keys[i] = k
}

// settle drops the keys e has passed and returns how many remain.
func (q *keyQueue) settle(e *netsim.Engine) int {
	for q.lo < len(q.keys) && e.Passed(q.keys[q.lo]) {
		q.lo++
	}
	if q.lo == len(q.keys) {
		q.keys, q.lo = q.keys[:0], 0
	}
	return len(q.keys) - q.lo
}

type sendInfo struct {
	at      float64
	retrans bool
}

// flight is the in-flight window: the sent, unACKed segments in ascending
// seq order in one reused buffer. Lookup, insert or overwrite, and the cut
// below an ACK take any seq, not only multiples of the MSS, since ACK
// numbers come off the wire.
type flight struct {
	segs []flightSeg // segs[lo:] are live; segs[:lo] were cut
	lo   int
}

type flightSeg struct {
	seq int64
	sendInfo
}

func (f *flight) len() int { return len(f.segs) - f.lo }

// find returns the index of seq among the live segments, or where it would
// be inserted, and whether it is there.
func (f *flight) find(seq int64) (int, bool) {
	i, ok := slices.BinarySearchFunc(f.segs[f.lo:], seq, func(g flightSeg, seq int64) int {
		return cmp.Compare(g.seq, seq)
	})
	return f.lo + i, ok
}

func (f *flight) get(seq int64) (sendInfo, bool) {
	if i, ok := f.find(seq); ok {
		return f.segs[i].sendInfo, true
	}
	return sendInfo{}, false
}

// put records a send of seq at time at; a segment once retransmitted stays
// marked retransmitted (Karn).
func (f *flight) put(seq int64, at float64, retrans bool) {
	i, ok := f.find(seq)
	if ok {
		f.segs[i].sendInfo = sendInfo{at: at, retrans: retrans || f.segs[i].retrans}
		return
	}
	if len(f.segs) == cap(f.segs) && f.lo > 0 {
		// Compact the live segments over the cut prefix instead of growing.
		n := copy(f.segs, f.segs[f.lo:])
		f.segs, i, f.lo = f.segs[:n], i-f.lo, 0
	}
	f.segs = slices.Insert(f.segs, i, flightSeg{seq: seq, sendInfo: sendInfo{at: at, retrans: retrans}})
}

// cut drops every segment with seq < ack.
func (f *flight) cut(ack int64) {
	if f.lo, _ = f.find(ack); f.lo == len(f.segs) {
		f.segs, f.lo = f.segs[:0], 0
	}
}

// Start creates the receiver on dst, registers both directions, and begins
// sending at the current simulation time.
func Start(src, dst *Endpoint, cfg Config) *Sender {
	cfg.defaults()
	s := &Sender{
		net:    src.node.Net(),
		node:   src.node,
		cfg:    cfg,
		window: cfg.Window,
		rwnd:   int64(cfg.RcvWindow),
		rto:    rtoInit,
	}
	s.stats.RTO = s.rto
	s.repump = s.pump
	s.rtoFn = s.rtoFired
	s.net.Engine().CountReserved(s)
	// Receiver: consumes data arriving with the forward key, ACKs back.
	r := &receiver{net: dst.node.Net(), node: dst.node, key: cfg.Key, mss: mss, rwnd: cfg.RcvWindow}
	dst.Register(cfg.Key, r)
	// Sender consumes ACKs arriving with the reverse key.
	src.Register(cfg.Key.Reverse(), netsim.ReceiverFunc(s.onAck))
	s.net.Engine().After(0, s.repump)
	return s
}

// Stats returns a copy of the flow statistics.
func (s *Sender) Stats() Stats {
	st := s.stats
	st.SRTT = s.srtt
	st.RTO = s.rto
	return st
}

// pump sends as many segments as the window (and pacing) allows.
func (s *Sender) pump() {
	if s.stopped || s.stats.Completed {
		return
	}
	now := s.net.Now()
	wBytes := int64(s.window) * int64(mss)
	if wBytes > s.rwnd {
		wBytes = s.rwnd // flow control: never exceed the advertised window
	}
	for s.nxt < s.una+wBytes {
		if s.cfg.TotalBytes > 0 && s.nxt >= s.cfg.TotalBytes {
			break
		}
		if s.cfg.Pace > 0 {
			if now < s.paceNext {
				// Try again when the pacing gate opens, once per instant:
				// every ACK inside a pacing gap lands here, and a second
				// wake-up at the same instant would only hit the gate and
				// re-arm. It could send only after a duplicate ACK at that
				// instant raised the advertised window, which no paced
				// caller produces (DESIGN.md §7.1).
				if s.paceWake != s.paceNext {
					s.paceWake = s.paceNext
					s.net.Engine().At(s.paceNext, s.repump)
				}
				return
			}
			s.paceNext = now + 1/s.cfg.Pace
		}
		s.transmit(s.nxt, false)
		s.nxt += int64(mss)
	}
}

// transmit sends one segment and (re)arms the RTO.
func (s *Sender) transmit(seq int64, isRetrans bool) {
	now := s.net.Now()
	h := packet.TCPHeader{
		SrcPort: s.cfg.Key.SrcPort, DstPort: s.cfg.Key.DstPort,
		Seq: uint32(seq), Flags: packet.FlagACK,
	}
	s.node.Send(s.net.NewTCP(s.cfg.Key.Src, s.cfg.Key.Dst, h, mss+40))
	s.stats.SentSegments++
	if isRetrans {
		s.stats.Retransmissions++
	}
	s.inFlight.put(seq, now, isRetrans)
	s.armRTO()
}

// armRTO (re)arms the retransmission timer. The arm reserves its key
// where its own event would have been scheduled.
func (s *Sender) armRTO() {
	timeout := s.rto * math.Pow(2, float64(s.backoff))
	if timeout > 60 {
		timeout = 60
	}
	eng := s.net.Engine()
	k := eng.Reserve(eng.Now() + timeout)
	s.retireRTO()
	s.rtoKey, s.rtoLive = k, true
	s.wakeRTO()
}

// wakeRTO queues a wake-up at the live arm's key unless one already queued
// comes at or before it.
func (s *Sender) wakeRTO() {
	if n := len(s.rtoWakes); n == 0 || s.rtoKey.Before(s.rtoWakes[n-1]) {
		s.net.Engine().AtKey(s.rtoKey, s.rtoFn)
		s.rtoWakes = append(s.rtoWakes, s.rtoKey)
	}
}

// retireRTO ends the live arm without firing it, as a re-arm, completion
// or Stop does. Its key stays pending, as the no-op event it once was,
// until it passes: through its wake-up if it has one, else in rtoStale.
func (s *Sender) retireRTO() {
	if !s.rtoLive {
		return
	}
	s.rtoLive = false
	if n := len(s.rtoWakes); n == 0 || s.rtoWakes[n-1] != s.rtoKey {
		s.rtoStale.push(s.rtoKey)
		s.rtoStale.settle(s.net.Engine())
	}
}

// rtoFired runs a wake-up. At the live arm's key the timer fires; at a
// superseded arm's key it moves on to the live arm.
func (s *Sender) rtoFired() {
	n := len(s.rtoWakes) - 1
	k := s.rtoWakes[n]
	s.rtoWakes = s.rtoWakes[:n]
	switch {
	case !s.rtoLive:
	case k == s.rtoKey:
		s.rtoLive = false
		s.onRTO()
	default:
		s.wakeRTO()
	}
}

// Reserved implements netsim.Reserver: the engine's pending count includes
// every arm not yet passed, as it did when each arm was an event. Arms
// with a wake-up are queued events already; the rest are the retired ones
// in rtoStale and a live arm waiting behind an earlier wake-up.
func (s *Sender) Reserved() int {
	n := s.rtoStale.settle(s.net.Engine())
	if w := len(s.rtoWakes); s.rtoLive && s.rtoWakes[w-1] != s.rtoKey {
		n++
	}
	return n
}

// onRTO fires when the oldest segment times out: retransmit it, back off,
// and collapse the window — the behaviour a failed path amplifies into the
// retransmission storm Blink watches for.
func (s *Sender) onRTO() {
	if s.stopped || s.stats.Completed || s.inFlight.len() == 0 {
		return
	}
	s.backoff++
	if s.cfg.AIMD {
		s.window = 1
	}
	s.dupAcks = 0
	s.transmit(s.una, true)
}

// onAck handles a cumulative ACK.
func (s *Sender) onAck(now float64, p *packet.Packet) {
	if s.stopped || p.TCP == nil {
		return
	}
	if p.TCP.Window > 0 {
		s.rwnd = int64(p.TCP.Window)
	}
	ack := int64(p.TCP.Ack)
	if ack <= s.una {
		// Duplicate ACK. Three of them trigger fast retransmit.
		s.dupAcks++
		if s.dupAcks == 3 {
			if s.cfg.AIMD {
				s.window = math.Max(1, s.window/2)
			}
			s.transmit(s.una, true)
		}
		return
	}
	// RTT sample (Karn: skip retransmitted segments).
	if info, ok := s.inFlight.get(s.una); ok && !info.retrans {
		s.rttSample(now - info.at)
	}
	s.inFlight.cut(ack)
	acked := ack - s.una
	s.una = ack
	s.dupAcks = 0
	s.backoff = 0
	s.stats.AckedBytes = s.una
	if s.cfg.AIMD {
		segs := float64(acked) / float64(mss)
		s.window = math.Min(maxWindow, s.window+segs/s.window)
	}
	if s.cfg.TotalBytes > 0 && s.una >= s.cfg.TotalBytes {
		s.stats.Completed = true
		s.stats.CompletionTime = now
		s.retireRTO()
		if s.OnComplete != nil {
			s.OnComplete(now)
		}
		return
	}
	if s.inFlight.len() > 0 {
		s.armRTO()
	}
	s.pump()
}

// rttSample updates SRTT/RTTVAR/RTO per RFC 6298.
func (s *Sender) rttSample(rtt float64) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttv = rtt / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		s.rttv = (1-beta)*s.rttv + beta*math.Abs(s.srtt-rtt)
		s.srtt = (1-alpha)*s.srtt + alpha*rtt
	}
	s.rto = s.srtt + 4*s.rttv
	if s.rto < rtoMin {
		s.rto = rtoMin
	}
}

// receiver is the cumulative-ACK data sink.
type receiver struct {
	net    *netsim.Network
	node   *netsim.Node
	key    packet.FlowKey
	mss    int
	rwnd   int
	rcvNxt int64
	ooo    map[int64]bool
}

// Receive implements netsim.Receiver for arriving data segments.
func (r *receiver) Receive(now float64, p *packet.Packet) {
	if p.TCP == nil {
		return
	}
	seq := int64(p.TCP.Seq)
	switch {
	case seq == r.rcvNxt:
		r.rcvNxt += int64(r.mss)
		for r.ooo[r.rcvNxt] {
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt += int64(r.mss)
		}
	case seq > r.rcvNxt:
		if r.ooo == nil {
			r.ooo = map[int64]bool{}
		}
		r.ooo[seq] = true
	}
	rk := r.key.Reverse()
	h := packet.TCPHeader{
		SrcPort: rk.SrcPort, DstPort: rk.DstPort,
		Ack: uint32(r.rcvNxt), Flags: packet.FlagACK,
		Window: uint16(r.rwnd),
	}
	r.node.Send(r.net.NewTCP(rk.Src, rk.Dst, h, 40))
}
