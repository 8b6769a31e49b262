// Package dapper reimplements the diagnosis core of DAPPER (Ghasemi,
// Benson, Rexford — SOSR'17), one of the §3.2 case studies: a data-plane
// monitor that watches a TCP connection's two-way traffic at a vantage
// point and decides whether its performance is limited by the sender
// (application cannot fill the window), the network (losses and
// retransmissions), or the receiver (flight size pinned at the advertised
// window).
//
// Operators act on this diagnosis ("the recourses suggested by the
// authors"): a network-limited verdict triggers rerouting or capacity
// upgrades, a receiver-limited one points at the customer's device, a
// sender-limited one at the service. The paper's observation: an attacker
// who can manipulate TCP packets can implicate any of the three at will —
// the headers DAPPER trusts are unauthenticated wire bytes.
package dapper

import (
	"dui/internal/netsim"
	"dui/internal/packet"
)

// Diagnosis is DAPPER's per-epoch verdict for one connection.
type Diagnosis int

// Diagnoses.
const (
	// Unknown: not enough traffic observed in the epoch.
	Unknown Diagnosis = iota
	// SenderLimited: the application does not fill the window it could.
	SenderLimited
	// NetworkLimited: retransmissions indicate congestion or loss.
	NetworkLimited
	// ReceiverLimited: the flight is pinned at the advertised window.
	ReceiverLimited
)

// String names the diagnosis.
func (d Diagnosis) String() string {
	switch d {
	case SenderLimited:
		return "sender-limited"
	case NetworkLimited:
		return "network-limited"
	case ReceiverLimited:
		return "receiver-limited"
	default:
		return "unknown"
	}
}

// Epoch is the diagnosis interval in seconds.
const Epoch float64 = 1

// The decision tree's thresholds.
const (
	// retransThreshold is the per-epoch retransmission count that flags
	// a connection network-limited.
	retransThreshold int = 2
	// rwndFraction is the flight/rwnd ratio above which the connection
	// counts as receiver-limited.
	rwndFraction float64 = 0.8
	// minPackets is the minimum data packets per epoch for a verdict.
	minPackets int = 5
)

// NoWindow is the RwndMin of an epoch in which no advertised window was
// seen.
const NoWindow int64 = 1 << 30

// EpochEvidence is what one diagnosis epoch gives the decision tree.
type EpochEvidence struct {
	DataPkts  int   // data packets seen
	Retrans   int   // data packets that carried old data
	FlightMax int64 // largest flight (bytes sent but not acknowledged)
	RwndMin   int64 // smallest advertised window, NoWindow when none was seen
}

// Classify is the decision tree over one epoch's evidence: too few
// packets ⇒ unknown; retransmissions ⇒ network; flight pinned at the
// advertised window ⇒ receiver; otherwise the sender had window available
// and did not use it ⇒ sender.
func Classify(e EpochEvidence) Diagnosis {
	if e.DataPkts < minPackets {
		return Unknown
	}
	if e.Retrans >= retransThreshold {
		return NetworkLimited
	}
	if e.RwndMin < NoWindow && float64(e.FlightMax) >= rwndFraction*float64(e.RwndMin) {
		return ReceiverLimited
	}
	return SenderLimited
}

// Votes tallies per-epoch diagnoses, indexed by Diagnosis.
type Votes [4]int

// Majority returns the most common non-Unknown diagnosis (Unknown when
// every vote is Unknown); ties go to sender, then network, then receiver.
func (v Votes) Majority() Diagnosis {
	best, bestN := Unknown, 0
	for _, d := range []Diagnosis{SenderLimited, NetworkLimited, ReceiverLimited} {
		if v[d] > bestN {
			best, bestN = d, v[d]
		}
	}
	return best
}

// connState is the per-connection tracking state (what DAPPER keeps in
// the data plane: a handful of counters per connection).
type connState struct {
	maxSeqEnd  int64 // highest sequence byte sent
	ackedUpTo  int64
	rwnd       int64 // latest advertised window from the receiver
	epochStart float64

	cur      EpochEvidence // the open epoch's accumulators
	verdicts []Verdict
}

// Verdict is one finished epoch's diagnosis.
type Verdict struct {
	At        float64
	Diagnosis Diagnosis
	Retrans   int
	FlightMax int64
	RwndMin   int64
}

// Monitor is the vantage-point program: attach to a router both
// directions of the monitored connections traverse.
type Monitor struct {
	conns map[packet.FlowKey]*connState
}

// NewMonitor returns a DAPPER monitor.
func NewMonitor() *Monitor {
	return &Monitor{conns: map[packet.FlowKey]*connState{}}
}

// OnPacket implements netsim.Program.
func (m *Monitor) OnPacket(now float64, p *packet.Packet, _ *netsim.Node) bool {
	if p.TCP == nil {
		return true
	}
	if p.Size > 60 {
		m.onData(now, p)
	} else {
		m.onAck(now, p)
	}
	return true
}

// onData tracks the forward (data) direction, keyed by the data 5-tuple.
func (m *Monitor) onData(now float64, p *packet.Packet) {
	k := p.Flow()
	c := m.conns[k]
	if c == nil {
		c = &connState{epochStart: now, cur: EpochEvidence{RwndMin: NoWindow}}
		m.conns[k] = c
	}
	m.rollEpoch(now, c)
	c.cur.DataPkts++
	seq := int64(p.TCP.Seq)
	end := seq + int64(p.Size-40)
	// A data packet entirely below the highest byte already sent carries
	// old data: a retransmission (this catches fast retransmits, unlike
	// a naive consecutive-duplicate check).
	if end <= c.maxSeqEnd {
		c.cur.Retrans++
	} else {
		c.maxSeqEnd = end
	}
	if f := c.maxSeqEnd - c.ackedUpTo; f > c.cur.FlightMax {
		c.cur.FlightMax = f
	}
}

// onAck tracks the reverse direction: cumulative ACKs and the advertised
// window.
func (m *Monitor) onAck(now float64, p *packet.Packet) {
	k := p.Flow().Reverse() // state is keyed by the data direction
	c := m.conns[k]
	if c == nil {
		return
	}
	m.rollEpoch(now, c)
	if a := int64(p.TCP.Ack); a > c.ackedUpTo {
		c.ackedUpTo = a
	}
	if w := int64(p.TCP.Window); w > 0 {
		c.rwnd = w
		if w < c.cur.RwndMin {
			c.cur.RwndMin = w
		}
	}
}

// rollEpoch closes finished epochs and emits verdicts.
func (m *Monitor) rollEpoch(now float64, c *connState) {
	for now-c.epochStart >= Epoch {
		c.verdicts = append(c.verdicts, Verdict{
			At:        c.epochStart + Epoch,
			Diagnosis: Classify(c.cur),
			Retrans:   c.cur.Retrans,
			FlightMax: c.cur.FlightMax,
			RwndMin:   c.cur.RwndMin,
		})
		c.epochStart += Epoch
		c.cur = EpochEvidence{RwndMin: NoWindow}
	}
}

// Verdicts returns the finished epochs of a connection (nil if unseen).
func (m *Monitor) Verdicts(k packet.FlowKey) []Verdict {
	c := m.conns[k]
	if c == nil {
		return nil
	}
	return append([]Verdict(nil), c.verdicts...)
}

// votes tallies a connection's epoch verdicts (empty if unseen).
func (m *Monitor) votes(k packet.FlowKey) Votes {
	var v Votes
	for _, vd := range m.Verdicts(k) {
		v[vd.Diagnosis]++
	}
	return v
}

// Majority returns the most common non-Unknown diagnosis of a connection
// over its observed epochs.
func (m *Monitor) Majority(k packet.FlowKey) Diagnosis { return m.votes(k).Majority() }
