package netsim

import (
	"dui/internal/packet"
	"dui/internal/stats"
)

// Operator is the most powerful attacker of §2.1: full control over the
// network. It can record, modify, drop, delay and inject traffic at any
// location, and manipulate device configuration. All its powers are
// expressed through the same primitives the legitimate control plane uses —
// which is exactly the paper's point about this privilege level.
type Operator struct {
	net *Network
}

// NewOperator returns operator-level control over nw.
func NewOperator(nw *Network) *Operator { return &Operator{net: nw} }

// Reroute overwrites the route for pfx on a router — config manipulation.
func (o *Operator) Reroute(on *Node, pfx packet.Prefix, nexthop *Node) {
	on.AddRoute(pfx, nexthop, nil)
}

// Throttle installs a tap that degrades a selected subset of traffic:
// packets matched by sel are dropped with probability dropP and delayed by
// extraDelay otherwise. This is the §4.1 operator attack that lowers the
// observed QoE of chosen flows ("reduce its throughput, increase loss, and
// even increase latency"). It returns the tap's injector (unused by the
// throttle itself but available to compose attacks).
func (o *Operator) Throttle(l *Link, sel func(*packet.Packet) bool, dropP, extraDelay float64, rng *stats.RNG) *Injector {
	return l.AttachTap(TapFunc(func(now float64, p *packet.Packet, dir Direction) TapVerdict {
		if !sel(p) {
			return TapVerdict{}
		}
		if dropP > 0 && rng.Bool(dropP) {
			return TapVerdict{Drop: true}
		}
		return TapVerdict{Delay: extraDelay}
	}))
}

// Recorder is a tap that captures flow-level observations without touching
// traffic — the passive part of every attacker privilege. It records packet
// counts and bytes per 5-tuple.
type Recorder struct {
	Flows map[packet.FlowKey]*FlowRecord
}

// FlowRecord summarizes one direction of one flow.
type FlowRecord struct {
	Packets   uint64
	Bytes     uint64
	First     float64
	Last      float64
	Retrans   uint64
	maxSeqSet bool
	maxSeq    uint32
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{Flows: map[packet.FlowKey]*FlowRecord{}} }

// Intercept implements Tap; it never modifies traffic.
func (r *Recorder) Intercept(now float64, p *packet.Packet, dir Direction) TapVerdict {
	k := p.Flow()
	f := r.Flows[k]
	if f == nil {
		f = &FlowRecord{First: now}
		r.Flows[k] = f
	}
	f.Packets++
	f.Bytes += uint64(p.Size)
	f.Last = now
	if p.TCP != nil {
		if f.maxSeqSet && p.TCP.Seq <= f.maxSeq && p.TCP.Flags&(packet.FlagSYN|packet.FlagFIN|packet.FlagRST) == 0 && p.Size > 40 {
			f.Retrans++
		}
		if !f.maxSeqSet || p.TCP.Seq > f.maxSeq {
			f.maxSeq = p.TCP.Seq
			f.maxSeqSet = true
		}
	}
	return TapVerdict{}
}
