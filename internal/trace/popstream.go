package trace

import (
	"math"

	"dui/internal/packet"
	"dui/internal/stats"
)

// Address plan of the PoP-scale population: prefix pid is the /24 at
// popBase + pid<<8, inside 100.64.0.0/10; per-prefix legitimate and
// attacker source pools allocate from disjoint bases, as NewLegit and
// NewMalicious do.
const (
	popBase          packet.Addr = 100<<24 | 64<<16 // 100.64.0.0
	popSrcBase       packet.Addr = 20 << 24         // 20.0.0.0
	popAttackSrcBase packet.Addr = 30 << 24         // 30.0.0.0
)

// PopConfig describes a PoP-scale traffic population: Prefixes monitored
// /24 destination prefixes, each carrying its own renewing population of
// FlowsPerPrefix legitimate TCP flows, with an always-active attack pool
// on every AttackedEvery-th prefix. Nothing is ever materialized beyond
// the per-flow heap records: packets stream out of scratch storage exactly
// as in NewLegit/NewMalicious.
//
// Determinism: prefix pid draws every random variate from
// stats.ChildAt(Seed, pid), so a prefix's packet timeline is a pure
// function of (Seed, pid) — independent of which shard processes it, how
// many shards exist, or how shards are scheduled. That is the property
// that makes the PoP experiment's sharded results byte-identical at any
// shard and worker count.
type PopConfig struct {
	// Prefixes is the number of monitored prefixes.
	Prefixes int
	// FlowsPerPrefix is each prefix's concurrently active legitimate flow
	// population (renewed when a flow's duration ends, as in LegitConfig).
	FlowsPerPrefix int
	// Dur samples legitimate flow durations.
	Dur DurationDist
	// PPS is the mean per-flow legitimate packet rate.
	PPS float64
	// Until stops every per-prefix stream at this time.
	Until float64
	// Epoch is the interleave granularity (seconds, default 1): the shard
	// stream emits each prefix's packets for one epoch before moving to
	// the next prefix, sweeping prefixes in ascending pid order epoch by
	// epoch. Coarser epochs keep one prefix's selector and flow state
	// cache-hot for longer; the per-prefix timeline is Epoch-independent.
	Epoch float64
	// Seed is the root seed; prefix pid draws from stats.ChildAt(Seed, pid).
	Seed uint64

	// AttackedEvery puts a §3.1 attack pool on every k-th prefix (pid % k
	// == 0); 0 disables attack traffic.
	AttackedEvery int
	// AttackFlows is the per-attacked-prefix pool size.
	AttackFlows int
	// AttackPPS is the attacker's per-flow packet rate (default PPS).
	AttackPPS float64
	// StormAt is the time the attack pools switch to fake retransmissions
	// (MaliciousConfig.RetransmitFrom); 0 means never (occupancy only).
	StormAt float64
}

// Defaults fills zero fields and returns the config.
func (c PopConfig) Defaults() PopConfig {
	if c.Prefixes <= 0 {
		c.Prefixes = 1024
	}
	if c.FlowsPerPrefix <= 0 {
		c.FlowsPerPrefix = 64
	}
	if c.Dur == nil {
		c.Dur = ExpDuration{MeanSec: 6.35}
	}
	if c.PPS <= 0 {
		c.PPS = 2
	}
	if c.Epoch <= 0 {
		c.Epoch = 1
	}
	if c.AttackedEvery > 0 {
		if c.AttackFlows <= 0 {
			c.AttackFlows = 8
		}
		if c.AttackPPS <= 0 {
			c.AttackPPS = c.PPS
		}
	}
	return c
}

// PrefixAt returns prefix pid's /24.
func (c PopConfig) PrefixAt(pid int) packet.Prefix {
	return packet.Prefix{Addr: popBase + packet.Addr(pid)<<8, Bits: 24}
}

// Attacked reports whether prefix pid hosts an attack pool.
func (c PopConfig) Attacked(pid int) bool {
	return c.AttackedEvery > 0 && pid%c.AttackedEvery == 0
}

// ActiveFlows returns the total concurrently active flow count across
// prefixes [lo, hi) — the "1M active flows" headline denominator.
func (c PopConfig) ActiveFlows(lo, hi int) int {
	n := (hi - lo) * c.FlowsPerPrefix
	if c.AttackedEvery > 0 {
		for pid := lo; pid < hi; pid++ {
			if c.Attacked(pid) {
				n += c.AttackFlows
			}
		}
	}
	return n
}

// PrefixStream builds prefix pid's standalone packet stream — the exact
// per-prefix timeline a PopShard interleaves. Equality between this stream
// and the shard's per-prefix subsequence is what the shard-independence
// test pins.
func (c PopConfig) PrefixStream(pid int) Stream {
	rng := stats.ChildAt(c.Seed, uint64(pid))
	victim := c.PrefixAt(pid)
	legit := NewLegit(LegitConfig{
		Victim: victim, Flows: c.FlowsPerPrefix, Dur: c.Dur, PPS: c.PPS,
		Until: c.Until, SrcBase: popSrcBase,
	}, rng.Child())
	if !c.Attacked(pid) {
		return legit
	}
	storm := c.StormAt
	if storm <= 0 {
		storm = math.Inf(1)
	}
	mal := NewMalicious(MaliciousConfig{
		Victim: victim, Flows: c.AttackFlows, PPS: c.AttackPPS,
		Until: c.Until, SrcBase: popAttackSrcBase,
		RetransmitFrom: storm,
	}, rng.Child())
	return Merge(legit, mal)
}

// PrefixEvent is one generated packet, its emission time, the global
// prefix id it is destined to, and its flow hash (the Event.FlowHash
// contract: Pkt.Flow().FastHash()).
type PrefixEvent struct {
	Prefix   int
	Time     float64
	Pkt      *packet.Packet
	FlowHash uint64
}

// popSlot buffers one pending event per prefix stream, mirroring merge's
// lazy-refill discipline: the slot whose event was handed out is not
// advanced until the next call, because advancing would overwrite the
// source stream's scratch packet while the caller still holds it.
type popSlot struct {
	ev   Event
	ok   bool
	dead bool
}

// PopShard streams the interleaved packets of prefixes [lo, hi): within
// each Epoch-long window the shard emits prefix lo's packets, then lo+1's,
// …, then hi-1's, and advances to the next window — a deterministic
// prefix-interleaved total order. Per-prefix subsequences are in
// non-decreasing time order (the MonitorBank feed contract) and
// are bit-identical to PrefixStream(pid) regardless of shard boundaries.
//
// The packet-lifetime rule of Stream applies per prefix: the returned
// PrefixEvent.Pkt borrows the prefix stream's scratch packet and is valid
// until the shard's next Next call.
type PopShard struct {
	cfg      PopConfig
	lo       int
	streams  []Stream
	slots    []popSlot
	cur      int     // prefix index being swept this epoch
	last     int     // slot emitted by the previous Next (-1 none); refill lazily
	epochEnd float64 // exclusive upper bound of the current epoch
	alive    int     // streams not yet exhausted
}

// NewPopShard returns the interleaved stream of prefixes [lo, hi). The
// config is defaulted first, so shards of one experiment must be built
// from the same PopConfig literal.
func NewPopShard(cfg PopConfig, lo, hi int) *PopShard {
	cfg = cfg.Defaults()
	s := &PopShard{
		cfg:      cfg,
		lo:       lo,
		streams:  make([]Stream, hi-lo),
		slots:    make([]popSlot, hi-lo),
		last:     -1,
		epochEnd: cfg.Epoch,
		alive:    hi - lo,
	}
	for i := range s.streams {
		s.streams[i] = cfg.PrefixStream(lo + i)
		s.slots[i].ev, s.slots[i].ok = s.streams[i].Next()
		if !s.slots[i].ok {
			s.slots[i].dead = true
			s.alive--
		}
	}
	return s
}

// Next returns the next packet of the interleaved order. ok=false means
// every prefix stream is exhausted (all flows passed Until).
func (s *PopShard) Next() (PrefixEvent, bool) {
	if s.last >= 0 {
		sl := &s.slots[s.last]
		sl.ev, sl.ok = s.streams[s.last].Next()
		if !sl.ok {
			sl.dead = true
			s.alive--
		}
		s.last = -1
	}
	for {
		if s.cur >= len(s.slots) {
			if s.alive == 0 {
				return PrefixEvent{}, false
			}
			s.cur = 0
			s.epochEnd += s.cfg.Epoch
		}
		sl := &s.slots[s.cur]
		if sl.ok && sl.ev.Time < s.epochEnd {
			s.last = s.cur
			return PrefixEvent{Prefix: s.lo + s.cur, Time: sl.ev.Time, Pkt: sl.ev.Pkt, FlowHash: sl.ev.FlowHash}, true
		}
		s.cur++
	}
}
