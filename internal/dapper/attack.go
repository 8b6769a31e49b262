package dapper

import (
	"dui/internal/netsim"
	"dui/internal/packet"
)

// The §3.2 attacks: "an attacker can implicate either of these three for
// performance problems by manipulating TCP packets, and falsely trigger
// the recourses suggested by the authors". Each tap sits between the
// monitored vantage point and one endpoint (MitM privilege) and rewrites
// or injects unauthenticated header bytes. Its copies come from the
// link's network (Network.CloneTCP), which recycles them.

// linkNet returns the network link l belongs to.
func linkNet(l *netsim.Link) *netsim.Network {
	a, _ := l.Nodes()
	return a.Net()
}

// BlameNetwork injects a duplicate of every k-th data segment upstream of
// the monitor: the monitor counts them as retransmissions and diagnoses
// congestion where there is none. The receiver simply discards the
// duplicates, so the connection itself is unharmed — only the operator's
// view (and the triggered recourse) is corrupted.
type BlameNetwork struct {
	inj   *netsim.Injector
	count int
	// Injected counts fabricated packets (attack budget).
	Injected int
}

// dupEvery is BlameNetwork's duplication period in data packets.
const dupEvery int = 4

// Attach installs the tap on the link (direction dir carries the data).
func (b *BlameNetwork) Attach(l *netsim.Link) {
	nw := linkNet(l)
	b.inj = l.AttachTap(netsim.TapFunc(func(now float64, p *packet.Packet, dir netsim.Direction) netsim.TapVerdict {
		if p.TCP == nil || p.Size <= 60 {
			return netsim.TapVerdict{}
		}
		b.count++
		if b.count%dupEvery == 0 {
			dup := nw.CloneTCP(p)
			dup.ID = 0 // fresh packet identity
			b.inj.Inject(dup, dir)
			b.Injected++
		}
		return netsim.TapVerdict{}
	}))
}

// BlameReceiver rewrites the advertised window in ACKs to a small value:
// the monitor sees the flight pinned at the (fake) window and blames the
// receiver. As collateral the sender genuinely throttles — the attack
// both degrades the connection and mis-attributes the degradation.
type BlameReceiver struct {
	// Rewritten counts modified ACKs.
	Rewritten int
}

// shrunkWindow is BlameReceiver's forged advertised window: one MSS,
// which pins even an application-paced flow's flight.
const shrunkWindow uint16 = 1460

// Attach installs the tap on the ACK path.
func (b *BlameReceiver) Attach(l *netsim.Link) {
	nw := linkNet(l)
	l.AttachTap(netsim.TapFunc(func(now float64, p *packet.Packet, dir netsim.Direction) netsim.TapVerdict {
		if p.TCP == nil || p.Size > 60 || p.TCP.Window == 0 {
			return netsim.TapVerdict{}
		}
		q := nw.CloneTCP(p)
		q.TCP.Window = shrunkWindow
		b.Rewritten++
		return netsim.TapVerdict{Replace: q}
	}))
}

// BlameSender rewrites the advertised window in ACKs *upward*: a
// genuinely receiver-limited connection (small real window) appears to
// the monitor to have plenty of window it never fills, so DAPPER blames
// the sender's application. Since the forged ACKs also reach the sender,
// it additionally releases data faster than the receiver asked for — in a
// real deployment that overruns the receiver's buffer, a classic
// flow-control attack stacked on top of the mis-attribution.
type BlameSender struct {
	// Rewritten counts modified ACKs.
	Rewritten int
}

// inflatedWindow is BlameSender's forged advertised window, the largest
// an unscaled TCP header holds.
const inflatedWindow uint16 = 65535

// Attach installs the tap on the ACK path upstream of the monitor.
func (b *BlameSender) Attach(l *netsim.Link) {
	nw := linkNet(l)
	l.AttachTap(netsim.TapFunc(func(now float64, p *packet.Packet, dir netsim.Direction) netsim.TapVerdict {
		if p.TCP == nil || p.Size > 60 || p.TCP.Window == 0 {
			return netsim.TapVerdict{}
		}
		q := nw.CloneTCP(p)
		q.TCP.Window = inflatedWindow
		b.Rewritten++
		return netsim.TapVerdict{Replace: q}
	}))
}
