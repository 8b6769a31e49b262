package pcc

import (
	"math"

	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
	"dui/internal/tcpflow"
)

// State is the sender's control state.
type State int

// Control states of the Allegro state machine.
const (
	Starting  State = iota // double the rate until utility drops
	Deciding               // 4-MI randomized controlled trial at r(1±ε)
	Adjusting              // move in the chosen direction with growing steps
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case Starting:
		return "starting"
	case Deciding:
		return "deciding"
	default:
		return "adjusting"
	}
}

// Fixed parameters of every PCC flow.
const (
	// minRate is the smallest sending rate in packets/s.
	minRate float64 = 10
	// pktSize is the wire size of each data packet (bytes).
	pktSize int = 1250
	// epsMin is the trial granularity and escalation step.
	epsMin float64 = 0.01
)

// Config parameterizes a PCC flow.
type Config struct {
	Key packet.FlowKey
	// StartRate is the initial and MaxRate the largest sending rate in
	// packets/s.
	StartRate, MaxRate float64
	// EpsMax is the cap (0.05) on the trial amplitude that bounds the
	// forced oscillation.
	EpsMax float64
	// MinMI floors the monitor interval, which is 1.7×SRTT.
	MinMI float64
	// Utility defaults to Allegro.
	Utility Utility
	// Duration stops the flow at this simulation time (0 = run forever).
	Duration float64
}

func (c *Config) defaults() {
	if c.StartRate <= 0 {
		c.StartRate = 100
	}
	if c.MaxRate <= 0 {
		c.MaxRate = 1e5
	}
	if c.EpsMax <= 0 {
		c.EpsMax = 0.05
	}
	if c.MinMI <= 0 {
		c.MinMI = 0.25
	}
	if c.Utility == nil {
		c.Utility = Allegro
	}
}

// MIRecord is the outcome of one monitor interval, kept for analysis.
type MIRecord struct {
	ID      int
	Start   float64
	Rate    float64
	Role    string // "start", "up", "down", "adjust", "filler"
	Sent    int
	Acked   int
	Loss    float64
	Utility float64
	Eps     float64
	State   State
}

// Sender is one PCC Allegro flow.
type Sender struct {
	net  *netsim.Network
	node *netsim.Node
	cfg  Config
	rng  *stats.RNG

	state State
	rate  float64 // current base rate r
	eps   float64

	// RCT bookkeeping.
	trialPlan    []float64 // rate multipliers for the pending trial MIs
	trialRoles   []string
	trialResults []*MIRecord
	adjustDir    float64
	adjustStep   int
	lastUtility  float64
	prevMIUtil   float64
	// pendingStart/pendingAdjust guard against re-evaluating the same
	// rate while an evaluation MI's result is still in flight (results
	// lag the MI end by ~1 RTT); fillers run in the meantime.
	pendingStart  bool
	pendingAdjust bool

	// Per-MI accounting.
	nextSeq  uint64
	acks     ackWindow
	open     []miSpan           // unfinalized MIs' seq spans, in start order
	sentAt   map[uint64]float64 // RTT probes (sparse)
	srtt     float64
	records  []MIRecord
	epsTrace []float64
	stopped  bool

	// sends is the lane of paced transmissions startMI scheduled: each
	// entry carries its seq in Tag and, in OK, whether to record its send
	// time as an RTT probe. Each MI's send times are nondecreasing and
	// precede the next MI's, which is the lane's FIFO contract.
	sends *netsim.Lane
}

// miSpan is the seq range [lo, hi) one monitor interval sent.
type miSpan struct{ lo, hi uint64 }

// Start launches a PCC flow from src to dst. The receiver echoes every
// data packet's sequence number; loss per MI is counted from the echoes.
func Start(src, dst *tcpflow.Endpoint, cfg Config, rng *stats.RNG) *Sender {
	cfg.defaults()
	s := &Sender{
		net:    src.Node().Net(),
		node:   src.Node(),
		cfg:    cfg,
		rng:    rng,
		state:  Starting,
		rate:   cfg.StartRate,
		eps:    epsMin,
		sentAt: map[uint64]float64{},
		srtt:   0.1,
	}
	s.prevMIUtil = math.Inf(-1)
	s.sends = s.net.Engine().NewLane(s.sendNext)
	// Receiver: echo the sequence number of each arriving data packet.
	rk := cfg.Key.Reverse()
	dst.Register(cfg.Key, netsim.ReceiverFunc(func(now float64, p *packet.Packet) {
		if p.TCP == nil {
			return
		}
		dst.Node().Send(s.net.NewTCP(rk.Src, rk.Dst, packet.TCPHeader{
			SrcPort: rk.SrcPort, DstPort: rk.DstPort,
			Ack: p.TCP.Seq, Flags: packet.FlagACK,
		}, 40))
	}))
	src.Register(rk, netsim.ReceiverFunc(s.onAck))
	s.net.Engine().After(0, func() { s.startMI(s.rate, "start") })
	return s
}

// Records returns all finalized MI records.
func (s *Sender) Records() []MIRecord { return s.records }

// Eps returns the current trial amplitude ε.
func (s *Sender) Eps() float64 { return s.eps }

// State returns the control state.
func (s *Sender) State() State { return s.state }

// miDuration returns the monitor interval length.
func (s *Sender) miDuration() float64 {
	d := 1.7 * s.srtt
	if d < s.cfg.MinMI {
		d = s.cfg.MinMI
	}
	return d
}

// startMI begins a monitor interval at the given rate and schedules its
// packet transmissions (uniform pacing) and its finalization.
func (s *Sender) startMI(rate float64, role string) {
	if s.stopped {
		return
	}
	now := s.net.Now()
	if s.cfg.Duration > 0 && now >= s.cfg.Duration {
		s.stopped = true
		return
	}
	dur := s.miDuration()
	rec := &MIRecord{
		ID: len(s.records) + len(s.trialResults) + 1, Start: now,
		Rate: rate, Role: role, Eps: s.eps, State: s.state,
	}
	switch role {
	case "start":
		s.pendingStart = true
	case "adjust":
		s.pendingAdjust = true
	}
	// Pace at exactly 1/rate spacing: the wire inter-packet gap IS the
	// rate signal (both for the receiver-side throughput and for any
	// observer), so it must not be quantized to the MI duration.
	n := int(rate * dur)
	if n < 1 {
		n = 1
	}
	gap := 1 / rate
	lo := s.nextSeq
	for i := 0; i < n; i++ {
		s.sends.Push(now+float64(i)*gap, netsim.LaneEntry{Tag: s.nextSeq, OK: i%16 == 0}) // sparse RTT probes
		s.nextSeq++
	}
	rec.Sent = n
	hi := s.nextSeq
	s.open = append(s.open, miSpan{lo, hi})
	s.acks.extend(hi)
	// The next MI starts back-to-back; results are finalized one RTT
	// (plus margin) after the MI ends so in-flight echoes are counted.
	s.net.Engine().At(now+dur, func() { s.nextMI() })
	s.net.Engine().At(now+dur+1.5*s.srtt+0.05, func() { s.finalizeMI(rec, hi) })
}

// sendNext transmits one paced send.
func (s *Sender) sendNext(en netsim.LaneEntry) {
	if s.stopped {
		return
	}
	if en.OK {
		s.sentAt[en.Tag] = en.T
	}
	s.node.Send(s.net.NewTCP(s.cfg.Key.Src, s.cfg.Key.Dst, packet.TCPHeader{
		SrcPort: s.cfg.Key.SrcPort, DstPort: s.cfg.Key.DstPort,
		Seq: uint32(en.Tag), Flags: packet.FlagACK,
	}, pktSize))
}

// finalizeMI computes loss and utility once echoes have had time to land.
func (s *Sender) finalizeMI(rec *MIRecord, hi uint64) {
	if s.stopped {
		return
	}
	acked := 0
	for seq := hi - uint64(rec.Sent); seq < hi; seq++ {
		if s.acks.has(seq) {
			acked++
		}
	}
	// Finalization order can differ from start order when the SRTT moves
	// between MIs; the window keeps everything from the oldest open MI.
	for i, sp := range s.open {
		if sp.hi == hi {
			s.open = append(s.open[:i], s.open[i+1:]...)
			break
		}
	}
	if len(s.open) > 0 {
		s.acks.advance(s.open[0].lo)
	} else {
		s.acks.advance(s.nextSeq)
	}
	rec.Acked = acked
	rec.Loss = 1 - float64(acked)/float64(rec.Sent)
	rec.Utility = s.cfg.Utility(rec.Rate, rec.Loss)
	s.records = append(s.records, *rec)
	s.onResult(rec)
}

// nextMI picks the next MI's rate according to the control state.
func (s *Sender) nextMI() {
	if s.stopped {
		return
	}
	if len(s.trialPlan) > 0 {
		mult := s.trialPlan[0]
		role := s.trialRoles[0]
		s.trialPlan = s.trialPlan[1:]
		s.trialRoles = s.trialRoles[1:]
		s.startMI(s.rate*mult, role)
		return
	}
	switch s.state {
	case Starting:
		if s.pendingStart {
			s.startMI(s.rate, "filler")
		} else {
			s.startMI(s.rate, "start")
		}
	case Deciding:
		// Waiting for trial results: keep sending at the base rate.
		s.startMI(s.rate, "filler")
	case Adjusting:
		if s.pendingAdjust {
			s.startMI(s.rate, "filler")
		} else {
			s.startMI(s.rate, "adjust")
		}
	}
}

// onResult advances the control state machine with one finalized MI.
func (s *Sender) onResult(rec *MIRecord) {
	s.epsTrace = append(s.epsTrace, s.eps)
	switch s.state {
	case Starting:
		if rec.Role != "start" {
			return
		}
		s.pendingStart = false
		if rec.Utility > s.prevMIUtil {
			s.prevMIUtil = rec.Utility
			s.rate = s.clamp(rec.Rate * 2)
			return
		}
		// Utility dropped: revert to the last good rate and decide.
		s.rate = s.clamp(rec.Rate / 2)
		s.enterDecision()
	case Deciding:
		if rec.Role == "up" || rec.Role == "down" {
			cp := *rec
			s.trialResults = append(s.trialResults, &cp)
			if len(s.trialResults) == 4 {
				s.decide()
			}
		}
	case Adjusting:
		if rec.Role != "adjust" {
			return
		}
		s.pendingAdjust = false
		if rec.Utility > s.lastUtility {
			s.lastUtility = rec.Utility
			s.adjustStep++
			s.rate = s.clamp(s.rate * (1 + s.adjustDir*float64(s.adjustStep)*epsMin))
			return
		}
		// Utility fell: step back and re-run trials.
		s.rate = s.clamp(s.rate / (1 + s.adjustDir*float64(s.adjustStep)*epsMin))
		s.enterDecision()
	}
}

// enterDecision plans the 4-MI randomized controlled trial: two pairs,
// each with one (1+ε) and one (1−ε) MI in random order.
func (s *Sender) enterDecision() {
	s.state = Deciding
	s.pendingStart = false
	s.pendingAdjust = false
	s.trialResults = s.trialResults[:0]
	s.trialPlan = s.trialPlan[:0]
	s.trialRoles = s.trialRoles[:0]
	for pair := 0; pair < 2; pair++ {
		up, down := 1+s.eps, 1-s.eps
		if s.rng.Bool(0.5) {
			s.trialPlan = append(s.trialPlan, up, down)
			s.trialRoles = append(s.trialRoles, "up", "down")
		} else {
			s.trialPlan = append(s.trialPlan, down, up)
			s.trialRoles = append(s.trialRoles, "down", "up")
		}
	}
}

// decide evaluates the completed RCT.
func (s *Sender) decide() {
	var ups, downs []*MIRecord
	for _, r := range s.trialResults {
		if r.Role == "up" {
			ups = append(ups, r)
		} else {
			downs = append(downs, r)
		}
	}
	upWins := ups[0].Utility > downs[0].Utility && ups[1].Utility > downs[1].Utility
	downWins := ups[0].Utility < downs[0].Utility && ups[1].Utility < downs[1].Utility
	s.trialResults = s.trialResults[:0]
	switch {
	case upWins:
		s.beginAdjust(+1, ups)
	case downWins:
		s.beginAdjust(-1, downs)
	default:
		// Inconclusive: stay, escalate ε — the state the §4.2 attacker
		// pins the flow into.
		s.eps = math.Min(s.eps+epsMin, s.cfg.EpsMax)
		s.enterDecision()
	}
}

func (s *Sender) beginAdjust(dir float64, winners []*MIRecord) {
	s.state = Adjusting
	s.adjustDir = dir
	s.adjustStep = 1
	s.lastUtility = math.Max(winners[0].Utility, winners[1].Utility)
	s.eps = epsMin
	s.rate = s.clamp(s.rate * (1 + dir*s.eps))
}

func (s *Sender) clamp(r float64) float64 {
	return math.Max(minRate, math.Min(s.cfg.MaxRate, r))
}

// onAck records an echoed sequence number and an RTT sample.
func (s *Sender) onAck(now float64, p *packet.Packet) {
	if p.TCP == nil {
		return
	}
	seq := uint64(p.TCP.Ack)
	s.acks.set(seq)
	if at, ok := s.sentAt[seq]; ok {
		delete(s.sentAt, seq)
		rtt := now - at
		s.srtt = 0.875*s.srtt + 0.125*rtt
	}
}

// ackWindow is the set of echoed seqs a finalization can still read: a
// bitmap over [lo, hi), from the oldest unfinalized MI's first seq to
// nextSeq. Echoes below lo — late jitter or a gray duplicate of an
// already finalized MI — are dropped instead of accumulating forever.
// Echoes at or past hi name seqs not sent yet (a corrupted echo carries
// an arbitrary seq); they wait in ahead until the window reaches them,
// since an MI that later sends that seq counts them.
type ackWindow struct {
	lo    uint64   // multiple of 64: words[0] bit i is seq lo+i
	hi    uint64   // first seq not yet sent
	words []uint64 // bitmap
	ahead map[uint64]bool
}

func (w *ackWindow) set(seq uint64) {
	switch {
	case seq < w.lo:
	case seq >= w.hi:
		if w.ahead == nil {
			w.ahead = map[uint64]bool{}
		}
		w.ahead[seq] = true
	default:
		w.words[(seq-w.lo)/64] |= 1 << ((seq - w.lo) % 64)
	}
}

func (w *ackWindow) has(seq uint64) bool {
	return seq >= w.lo && seq < w.hi && w.words[(seq-w.lo)/64]&(1<<((seq-w.lo)%64)) != 0
}

// extend grows the window to hi, pulling in early echoes it now covers.
func (w *ackWindow) extend(hi uint64) {
	for need := int((hi - w.lo + 63) / 64); len(w.words) < need; {
		w.words = append(w.words, 0)
	}
	w.hi = hi
	for seq := range w.ahead {
		if seq < hi {
			delete(w.ahead, seq)
			w.set(seq)
		}
	}
}

// advance drops every seq below lo from the window.
func (w *ackWindow) advance(lo uint64) {
	drop := int((lo - w.lo) / 64)
	if drop == 0 {
		return
	}
	n := copy(w.words, w.words[drop:])
	clear(w.words[n:])
	w.words = w.words[:n]
	w.lo += uint64(drop) * 64
}
