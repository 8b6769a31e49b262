// Package faults is the deterministic benign-fault injection plane layered
// on internal/netsim: per-link stochastic gray failure (loss, corruption,
// duplication, and latency jitter — and through jitter, reordering),
// scheduled bandwidth degradation, link flapping with minimum dwell times,
// and router crash/restart with full data-plane state loss.
//
// Where internal/netsim's taps model the paper's §2.1 *attacker*
// privileges, this package models the messy *environment* the §5
// countermeasures must not confuse with an attack: real networks produce
// retransmission noise from gray failures and flapping that an adversarial
// detector has to tolerate without false vetoes.
//
// Everything here is a pure function of explicitly passed seeded RNG
// streams (stats.ChildAt off the trial seed): runs stay bit-identical and
// worker-count-independent, and every fault mode is covered by the audit
// conservation identities (LinkStats.FaultDrop / Duplicated), so
// internal/audit stays exactly checkable under chaos.
package faults

import (
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
)

// GrayConfig parameterizes one gray-failure process on a link direction.
// All probabilities are per packet; the zero value injects nothing.
type GrayConfig struct {
	// LossP silently drops the packet (counted as LinkStats.FaultDrop).
	LossP float64
	// CorruptP forwards a bit-damaged copy instead (transport header
	// perturbed; the original packet is never mutated).
	CorruptP float64
	// DupP enqueues one extra copy (counted as LinkStats.Duplicated).
	DupP float64
	// Jitter holds the packet for an extra delay drawn uniformly from
	// [0, Jitter) seconds; JitterP is the per-packet probability of being
	// jittered (<= 0 means every packet, matching the tap Delay
	// convention). Jittered packets can overtake unjittered ones —
	// reordering falls out for free.
	JitterP, Jitter float64
	// From/Until bound the active window in virtual seconds; Until 0
	// means no end. Outside the window packets pass untouched and the RNG
	// is not consulted, so the stream is independent of traffic outside
	// the window.
	From, Until float64
}

// GrayStats counts what one Gray process did.
type GrayStats struct {
	Seen, Dropped, Corrupted, Duplicated, Jittered uint64
}

// Gray is a seed-deterministic gray-failure process implementing
// netsim.LinkFault. Install with Link.SetFault (compose several with
// Multi). The verdict for each packet is a pure function of the RNG
// stream's position, so a fixed seed gives a bit-identical run.
type Gray struct {
	cfg  GrayConfig
	dir  netsim.Direction
	both bool
	rng  *stats.RNG
	st   GrayStats
}

// NewGray returns a gray-failure process acting on both directions of the
// link it is installed on.
func NewGray(cfg GrayConfig, rng *stats.RNG) *Gray {
	return &Gray{cfg: cfg, both: true, rng: rng}
}

// NewGrayDir returns a gray-failure process restricted to one direction;
// packets traveling the other way pass untouched without consuming RNG
// draws.
func NewGrayDir(cfg GrayConfig, dir netsim.Direction, rng *stats.RNG) *Gray {
	return &Gray{cfg: cfg, dir: dir, rng: rng}
}

// Apply implements netsim.LinkFault. The direction and window filters run
// before any RNG draw, so traffic outside the process's scope cannot shift
// the stream.
func (g *Gray) Apply(now float64, p *packet.Packet, dir netsim.Direction) netsim.FaultVerdict {
	if !g.both && dir != g.dir {
		return netsim.FaultVerdict{}
	}
	if now < g.cfg.From || (g.cfg.Until > 0 && now > g.cfg.Until) {
		return netsim.FaultVerdict{}
	}
	g.st.Seen++
	var v netsim.FaultVerdict
	if g.cfg.LossP > 0 && g.rng.Bool(g.cfg.LossP) {
		g.st.Dropped++
		v.Drop = true
		return v
	}
	if g.cfg.CorruptP > 0 && g.rng.Bool(g.cfg.CorruptP) {
		g.st.Corrupted++
		v.Replace = corrupt(p, g.rng)
	}
	if g.cfg.DupP > 0 && g.rng.Bool(g.cfg.DupP) {
		g.st.Duplicated++
		v.Duplicate = 1
	}
	if g.cfg.Jitter > 0 && (g.cfg.JitterP <= 0 || g.rng.Bool(g.cfg.JitterP)) {
		g.st.Jittered++
		v.Delay = g.rng.Float64() * g.cfg.Jitter
	}
	return v
}

// corrupt returns a bit-damaged copy of p, as a failing transceiver would
// deliver it: the transport header field the data plane reads is XORed
// with a nonzero mask, so the copy always differs from the original. The
// original is never mutated — traffic generators own their packets.
func corrupt(p *packet.Packet, rng *stats.RNG) *packet.Packet {
	c := p.Clone()
	bits := rng.Uint64() | 1 // nonzero low bit: the XOR always flips something
	switch {
	case c.TCP != nil:
		c.TCP.Seq ^= uint32(bits)
	case c.UDP != nil:
		c.UDP.SrcPort ^= uint16(bits)
	case c.ICMP != nil:
		c.ICMP.Seq ^= uint16(bits)
	}
	return c
}

// Multi chains fault stages on one link (a link has a single fault slot).
// Verdicts compose like the tap chain: the first Drop is final, Replace
// substitutions chain (later stages see the replacement), delays add, and
// duplicate counts add.
type Multi []netsim.LinkFault

// Apply implements netsim.LinkFault.
func (m Multi) Apply(now float64, p *packet.Packet, dir netsim.Direction) netsim.FaultVerdict {
	var out netsim.FaultVerdict
	for _, f := range m {
		v := f.Apply(now, p, dir)
		if v.Drop {
			return netsim.FaultVerdict{Drop: true}
		}
		if v.Replace != nil {
			p = v.Replace
			out.Replace = p
		}
		out.Delay += v.Delay
		out.Duplicate += v.Duplicate
	}
	return out
}
