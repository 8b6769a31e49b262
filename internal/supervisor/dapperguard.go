package supervisor

import (
	"fmt"
	"math"

	"dui/internal/dapper"
	"dui/internal/netsim"
	"dui/internal/packet"
)

// DapperPacketObs is one vantage-point packet as the DAPPER guard sees
// it (built by OnPacket; tests may feed it directly).
type DapperPacketObs struct {
	Now    float64
	Key    packet.FlowKey // data-direction 5-tuple
	IsData bool
	Seq    int64
	End    int64 // Seq + payload length (data only)
	Window int64 // advertised window (ACK only)
	Ack    int64
}

// DapperGuard is the §5 supervisor for DAPPER: metric-sanity clamps on
// the evidence the diagnosis tree trusts. The §3.2 attacks forge wire
// bytes — injected duplicate data ("blame the network"), ACKs rewritten
// to a tiny window ("blame the receiver"), ACKs rewritten to a huge
// window ("blame the sender"). Each forgery violates a sanity envelope
// genuine TCP cannot:
//
//   - a genuine retransmission is separated from the original by at
//     least an RTT (fast retransmit) or an RTO; injected duplicates
//     ride on the original's heels (< minRetransGap),
//   - a receiver that advertises less than two MSS persistently is not
//     a functioning TCP endpoint (minRwnd),
//   - a flight ceiling that sits epoch after epoch at a stable value
//     far below the advertised window, with no loss anywhere, is a
//     real window whose advertisement was inflated (the phantom
//     ceiling check).
//
// The guard keeps its own sanitized per-epoch evidence, ignoring flagged
// packets, and runs DAPPER's decision tree and majority vote over it, so
// its Diagnose is the mitigated verdict.
type DapperGuard struct {
	cost  GuardCost
	conns map[packet.FlowKey]*dapperConn
}

// dapperConn is the guard's per-connection sanitized mirror.
type dapperConn struct {
	maxSeqEnd  int64
	ackedUpTo  int64
	endTimes   map[int64]float64
	epochStart float64
	started    bool

	// The open epoch's sanitized accumulators (forged duplicates and
	// windows left out), and the largest raw advertised window so far.
	cur        dapper.EpochEvidence
	rawRwndMax int64

	// Finished epochs.
	epochs []dapperEpoch

	// Whole-run flag counters.
	instantDups int
	lowRwnd     int
	totRetrans  int
}

type dapperEpoch struct {
	ev         dapper.EpochEvidence // sanitized
	rawRwndMax int64
}

// The DAPPER guard's sanity envelope.
const (
	// minRetransGap is the smallest plausible gap in seconds between a
	// data sequence range and its retransmission.
	minRetransGap float64 = 0.005
	// minRwnd is the smallest plausible persistent advertised window in
	// bytes: two MSS.
	minRwnd int64 = 2 * 1460
)

// defaults allocates the connection table of a zero guard.
func (g *DapperGuard) defaults() {
	if g.conns == nil {
		g.conns = map[packet.FlowKey]*dapperConn{}
	}
}

// OnPacket implements netsim.Program: attach next to the dapper.Monitor
// so the guard sees the identical packet stream.
func (g *DapperGuard) OnPacket(now float64, p *packet.Packet, _ *netsim.Node) bool {
	if p.TCP == nil {
		return true
	}
	if p.Size > 60 {
		seq := int64(p.TCP.Seq)
		g.Check(DapperPacketObs{
			Now: now, Key: p.Flow(), IsData: true,
			Seq: seq, End: seq + int64(p.Size-40),
		})
	} else {
		g.Check(DapperPacketObs{
			Now: now, Key: p.Flow().Reverse(),
			Window: int64(p.TCP.Window), Ack: int64(p.TCP.Ack),
		})
	}
	return true
}

var _ Guard[DapperPacketObs] = (*DapperGuard)(nil)

// Check implements Guard. The verdict is per packet: implausible marks
// forged evidence (an instant duplicate or an implausibly small
// advertised window), which the sanitized mirror then ignores. A packet
// without a finite timestamp cannot be placed in an epoch and is
// ignored.
func (g *DapperGuard) Check(o DapperPacketObs) Verdict {
	g.defaults()
	g.cost.Checks++
	if math.IsNaN(o.Now) || math.IsInf(o.Now, 0) {
		return Verdict{Plausible: true, Reason: "non-finite timestamp: packet ignored"}
	}
	c := g.conns[o.Key]
	if c == nil {
		c = &dapperConn{endTimes: map[int64]float64{}, cur: dapper.EpochEvidence{RwndMin: dapper.NoWindow}}
		g.conns[o.Key] = c
	}
	if !c.started {
		c.epochStart, c.started = o.Now, true
	}
	g.rollEpoch(o.Now, c)
	if o.IsData {
		return g.checkData(o, c)
	}
	return g.checkAck(o, c)
}

func (g *DapperGuard) checkData(o DapperPacketObs, c *dapperConn) Verdict {
	c.cur.DataPkts++
	defer func() {
		c.endTimes[o.End] = o.Now
		if f := c.maxSeqEnd - c.ackedUpTo; f > c.cur.FlightMax {
			c.cur.FlightMax = f
		}
	}()
	if o.End > c.maxSeqEnd {
		c.maxSeqEnd = o.End
		return Verdict{Plausible: true, Reason: "new data"}
	}
	c.totRetrans++
	if last, seen := c.endTimes[o.End]; seen && o.Now-last < minRetransGap {
		c.instantDups++
		g.cost.Flags++
		return Verdict{Risk: 1, Reason: fmt.Sprintf(
			"retransmission %.1f ms after the original: below any plausible RTT", 1000*(o.Now-last))}
	}
	c.cur.Retrans++
	return Verdict{Plausible: true, Risk: 0, Reason: "plausibly timed retransmission"}
}

func (g *DapperGuard) checkAck(o DapperPacketObs, c *dapperConn) Verdict {
	if o.Ack > c.ackedUpTo {
		c.ackedUpTo = o.Ack
	}
	if o.Window <= 0 {
		return Verdict{Plausible: true, Reason: "no window"}
	}
	if o.Window > c.rawRwndMax {
		c.rawRwndMax = o.Window
	}
	if o.Window < minRwnd {
		c.lowRwnd++
		g.cost.Flags++
		return Verdict{Risk: 1, Reason: fmt.Sprintf(
			"advertised window %d below two MSS: implausible for a functioning receiver", o.Window)}
	}
	if o.Window < c.cur.RwndMin {
		c.cur.RwndMin = o.Window
	}
	return Verdict{Plausible: true, Reason: "plausible advertised window"}
}

// rollEpoch closes finished sanitized epochs.
func (g *DapperGuard) rollEpoch(now float64, c *dapperConn) {
	for now-c.epochStart >= dapper.Epoch {
		c.epochs = append(c.epochs, dapperEpoch{ev: c.cur, rawRwndMax: c.rawRwndMax})
		c.epochStart += dapper.Epoch
		c.cur = dapper.EpochEvidence{RwndMin: dapper.NoWindow}
	}
}

// Cost implements Guard.
func (g *DapperGuard) Cost() GuardCost { return g.cost }

// Flagged reports whether the connection's evidence tripped any clamp.
func (g *DapperGuard) Flagged(k packet.FlowKey) bool {
	g.defaults()
	c := g.conns[k]
	if c == nil {
		return false
	}
	return c.instantDups >= 3 || c.lowRwnd >= 10 || g.phantomCeiling(c)
}

// phantomCeiling detects the inflate-window forgery: a loss-free
// connection whose per-epoch flight ceiling is pinned at a stable value
// of several MSS, yet far below the advertised window. A genuinely
// sender-limited application shows a small or wandering flight; a
// stable multi-MSS ceiling is a real (receiver) window whose
// advertisement was rewritten upward.
func (g *DapperGuard) phantomCeiling(c *dapperConn) bool {
	if c.cur.Retrans+sumEpochRetrans(c.epochs) > 0 {
		return false
	}
	var flights []int64
	var rawMax int64
	for _, e := range c.epochs {
		if e.ev.DataPkts < 5 {
			continue
		}
		flights = append(flights, e.ev.FlightMax)
		if e.rawRwndMax > rawMax {
			rawMax = e.rawRwndMax
		}
	}
	if len(flights) < 3 || rawMax == 0 {
		return false
	}
	lo, hi, sum := flights[0], flights[0], int64(0)
	for _, f := range flights {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
		sum += f
	}
	mean := float64(sum) / float64(len(flights))
	stable := float64(hi-lo) <= 0.15*mean
	return stable && mean >= 4*1460 && mean <= 0.5*float64(rawMax)
}

func sumEpochRetrans(es []dapperEpoch) int {
	n := 0
	for _, e := range es {
		n += e.ev.Retrans
	}
	return n
}

// Diagnose returns the sanitized majority diagnosis for a connection —
// the mitigated verdict an operator acts on: forged duplicates do not
// count as retransmissions, forged tiny windows do not pin the flight,
// and a phantom flight ceiling overrides a sender-limited verdict with
// receiver-limited (the ceiling is the real window).
func (g *DapperGuard) Diagnose(k packet.FlowKey) dapper.Diagnosis {
	g.defaults()
	c := g.conns[k]
	if c == nil {
		return dapper.Unknown
	}
	var votes dapper.Votes
	for _, e := range c.epochs {
		votes[dapper.Classify(e.ev)]++
	}
	best := votes.Majority()
	if best == dapper.SenderLimited && g.phantomCeiling(c) {
		return dapper.ReceiverLimited
	}
	return best
}
