package tcpflow

import (
	"math"

	"dui/internal/netsim"
	"dui/internal/packet"
)

// Config parameterizes a TCP flow. The zero value is completed by
// defaults() — MSS 1460, initial window 10 segments, RFC 6298 RTO bounds.
type Config struct {
	// Key is the forward (data) direction 5-tuple; ACKs travel on
	// Key.Reverse().
	Key packet.FlowKey
	// MSS is the segment payload size in bytes.
	MSS int
	// Window is the send window in segments. With AIMD enabled it is the
	// initial congestion window; otherwise it is fixed.
	Window float64
	// AIMD enables additive-increase/multiplicative-decrease on the
	// window (increase 1/W per ACKed segment, halve on loss).
	AIMD bool
	// MaxWindow caps the window in segments (0 = 64).
	MaxWindow float64
	// TotalBytes ends the flow after this much data is ACKed; 0 means the
	// flow runs until Stop.
	TotalBytes int64
	// RTOMin and RTOInit bound the retransmission timeout (seconds).
	RTOMin, RTOInit float64
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
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.Window <= 0 {
		c.Window = 10
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 64
	}
	if c.RTOMin <= 0 {
		c.RTOMin = 0.2
	}
	if c.RTOInit <= 0 {
		c.RTOInit = 1.0
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
	inFlight   map[int64]sendInfo
	window     float64
	dupAcks    int
	srtt, rttv float64
	rwnd       int64 // latest advertised receive window (bytes)
	rto        float64
	rtoSeq     uint64 // invalidates stale timers
	backoff    int
	stopped    bool
	stats      Stats

	// OnComplete, if set, fires when TotalBytes are ACKed.
	OnComplete func(now float64)
	paceNext   float64
	repump     func() // s.pump, bound once so pacing re-arms allocate nothing
}

type sendInfo struct {
	at      float64
	retrans bool
}

// Start creates the receiver on dst, registers both directions, and begins
// sending at the current simulation time.
func Start(src, dst *Endpoint, cfg Config) *Sender {
	cfg.defaults()
	s := &Sender{
		net:      src.node.Net(),
		node:     src.node,
		cfg:      cfg,
		inFlight: map[int64]sendInfo{},
		window:   cfg.Window,
		rwnd:     int64(cfg.RcvWindow),
		rto:      cfg.RTOInit,
	}
	s.stats.RTO = s.rto
	s.repump = s.pump
	// Receiver: consumes data arriving with the forward key, ACKs back.
	r := &receiver{net: dst.node.Net(), node: dst.node, key: cfg.Key, mss: cfg.MSS, rwnd: cfg.RcvWindow}
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

// Window returns the current window in segments.
func (s *Sender) Window() float64 { return s.window }

// Stop ends the flow; no further segments or timers fire.
func (s *Sender) Stop() {
	s.stopped = true
	s.rtoSeq++
}

// pump sends as many segments as the window (and pacing) allows.
func (s *Sender) pump() {
	if s.stopped || s.stats.Completed {
		return
	}
	now := s.net.Now()
	wBytes := int64(s.window) * int64(s.cfg.MSS)
	if wBytes > s.rwnd {
		wBytes = s.rwnd // flow control: never exceed the advertised window
	}
	for s.nxt < s.una+wBytes {
		if s.cfg.TotalBytes > 0 && s.nxt >= s.cfg.TotalBytes {
			break
		}
		if s.cfg.Pace > 0 {
			if now < s.paceNext {
				// Try again when the pacing gate opens.
				s.net.Engine().At(s.paceNext, s.repump)
				return
			}
			s.paceNext = now + 1/s.cfg.Pace
		}
		s.transmit(s.nxt, false)
		s.nxt += int64(s.cfg.MSS)
	}
}

// transmit sends one segment and (re)arms the RTO.
func (s *Sender) transmit(seq int64, isRetrans bool) {
	now := s.net.Now()
	h := packet.TCPHeader{
		SrcPort: s.cfg.Key.SrcPort, DstPort: s.cfg.Key.DstPort,
		Seq: uint32(seq), Flags: packet.FlagACK,
	}
	p := packet.NewTCP(s.cfg.Key.Src, s.cfg.Key.Dst, h, s.cfg.MSS+40)
	s.node.Send(p)
	s.stats.SentSegments++
	if isRetrans {
		s.stats.Retransmissions++
	}
	s.inFlight[seq] = sendInfo{at: now, retrans: isRetrans || s.inFlight[seq].retrans}
	s.armRTO()
}

func (s *Sender) armRTO() {
	s.rtoSeq++
	seq := s.rtoSeq
	timeout := s.rto * math.Pow(2, float64(s.backoff))
	if timeout > 60 {
		timeout = 60
	}
	s.net.Engine().After(timeout, func() {
		if s.rtoSeq == seq {
			s.onRTO()
		}
	})
}

// onRTO fires when the oldest segment times out: retransmit it, back off,
// and collapse the window — the behaviour a failed path amplifies into the
// retransmission storm Blink watches for.
func (s *Sender) onRTO() {
	if s.stopped || s.stats.Completed || len(s.inFlight) == 0 {
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
	if info, ok := s.inFlight[s.una]; ok && !info.retrans {
		s.rttSample(now - info.at)
	}
	for seq := range s.inFlight {
		if seq < ack {
			delete(s.inFlight, seq)
		}
	}
	acked := ack - s.una
	s.una = ack
	s.dupAcks = 0
	s.backoff = 0
	s.stats.AckedBytes = s.una
	if s.cfg.AIMD {
		segs := float64(acked) / float64(s.cfg.MSS)
		s.window = math.Min(s.cfg.MaxWindow, s.window+segs/s.window)
	}
	if s.cfg.TotalBytes > 0 && s.una >= s.cfg.TotalBytes {
		s.stats.Completed = true
		s.stats.CompletionTime = now
		s.rtoSeq++ // cancel timers
		if s.OnComplete != nil {
			s.OnComplete(now)
		}
		return
	}
	if len(s.inFlight) > 0 {
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
	if s.rto < s.cfg.RTOMin {
		s.rto = s.cfg.RTOMin
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
	r.node.Send(packet.NewTCP(rk.Src, rk.Dst, h, 40))
}
