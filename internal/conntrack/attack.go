package conntrack

import (
	"dui/internal/packet"
	"dui/internal/stats"
)

// ExhaustionConfig parameterizes the §3.2 state-exhaustion experiment: a
// population of legitimate connections through the balancer, a spoofed
// SYN flood filling the table, and a backend-pool update that reveals
// which connections lost their pinning.
type ExhaustionConfig struct {
	// TableCap is the switch's per-connection state capacity; Timeout
	// its idle eviction (seconds).
	TableCap int
	Timeout  float64
	Backends int
	// LegitConns is the number of concurrent legitimate connections;
	// each sends a packet every LegitInterval seconds for Duration.
	LegitConns    int
	LegitInterval float64
	// LegitLifetime is the mean connection lifetime (exponential): web
	// workloads churn, and it is the *renewing* connections the attack
	// hits — an exact-match table cannot evict established entries, but
	// it can refuse new ones.
	LegitLifetime float64
	// AttackSYNRate is the spoofed new-connection rate (SYNs/s); 0
	// disables the attack.
	AttackSYNRate float64
	// UpdateAt is when the backend pool changes.
	UpdateAt float64
	Duration float64
	Seed     uint64
	// Guard, if set, observes the table once per simulation step — the
	// hook the §5 table-pressure supervisor uses to sample occupancy and
	// trigger probation sweeps. Excluded from canonical specs.
	Guard func(now float64, t *Table) `json:"-"`
}

// Defaults fills a representative configuration: the table holds 4x the
// legitimate population — generous, until the flood arrives.
func (c ExhaustionConfig) Defaults() ExhaustionConfig {
	if c.TableCap <= 0 {
		c.TableCap = 4000
	}
	if c.Timeout <= 0 {
		c.Timeout = 5
	}
	if c.Backends <= 0 {
		c.Backends = 8
	}
	if c.LegitConns <= 0 {
		c.LegitConns = 1000
	}
	if c.LegitInterval <= 0 {
		c.LegitInterval = 0.5
	}
	if c.LegitLifetime <= 0 {
		c.LegitLifetime = 15
	}
	if c.UpdateAt <= 0 {
		c.UpdateAt = 30
	}
	if c.Duration <= 0 {
		c.Duration = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ExhaustionResult reports the damage.
type ExhaustionResult struct {
	Config ExhaustionConfig
	// TableOccupancy is the table fill level just before the update.
	TableOccupancy int
	// UnpinnedLegit is how many legitimate connections had no table
	// entry at the pool update.
	UnpinnedLegit int
	// BrokenLegit is how many legitimate connections were remapped to a
	// different backend by the update — broken connections.
	BrokenLegit int
	// BrokenFraction is BrokenLegit / LegitConns.
	BrokenFraction float64
	// Rejected counts failed insertions (state pressure).
	Rejected uint64
}

// RunExhaustion simulates the balancer in 100ms steps: legitimate
// connections keep their flows alive; the attacker opens AttackSYNRate
// spoofed connections per second, each touching the table exactly once
// (the SYN) and then idling — but the idle timeout keeps ~rate×timeout of
// them resident, squeezing legitimate state out (new legit connections
// can't pin; with the flood sustained, re-pinning never succeeds). At
// UpdateAt the backend pool changes and every unpinned legitimate
// connection is remapped.
func RunExhaustion(cfg ExhaustionConfig) *ExhaustionResult {
	cfg = cfg.Defaults()
	rng := stats.NewRNG(cfg.Seed)
	table := NewTable(cfg.TableCap, cfg.Timeout)
	lb := NewLoadBalancer(table, cfg.Backends, rng)
	res := &ExhaustionResult{Config: cfg}
	vip := packet.MustParseAddr("10.9.0.1")

	type legitConn struct {
		key     packet.FlowKey
		backend Backend
		pinned  bool
		next    float64
		endsAt  float64
	}
	legitID := 0
	newKey := func() packet.FlowKey {
		legitID++
		return packet.FlowKey{
			Src: packet.Addr(0x14000000 + legitID), Dst: vip,
			SrcPort: uint16(1024 + legitID%60000), DstPort: 443, Proto: packet.ProtoTCP,
		}
	}
	legit := make([]*legitConn, cfg.LegitConns)
	for i := range legit {
		k := newKey()
		b, pinned := lb.Dispatch(0, k, true)
		legit[i] = &legitConn{
			key: k, backend: b, pinned: pinned,
			next:   rng.Float64() * cfg.LegitInterval,
			endsAt: rng.Exp(cfg.LegitLifetime),
		}
	}

	const step = 0.1
	attackCarry := 0.0
	attackID := 0
	for now := 0.0; now < cfg.Duration; now += step {
		// Attacker: spoofed SYNs, each a fresh 5-tuple, touched once.
		attackCarry += cfg.AttackSYNRate * step
		for attackCarry >= 1 {
			attackCarry--
			attackID++
			k := packet.FlowKey{
				Src: packet.Addr(0x1E000000 + attackID), Dst: vip,
				SrcPort: uint16(1024 + attackID%60000), DstPort: 443, Proto: packet.ProtoTCP,
			}
			lb.Dispatch(now, k, true)
		}
		// Legitimate connections keep talking (refreshing or retrying
		// their pin) and churn: a finished connection closes (freeing
		// its entry) and is replaced by a fresh one, which must compete
		// with the flood for table space.
		for _, c := range legit {
			if now >= c.endsAt {
				// The old entry lingers until the idle timeout (the
				// switch learns of the close lazily, if at all); the
				// replacement connection must race the flood for a
				// free slot — and the flood arrives faster.
				c.key = newKey()
				c.endsAt = now + rng.Exp(cfg.LegitLifetime)
				b, pinned := lb.Dispatch(now, c.key, true)
				c.backend, c.pinned = b, pinned
				c.next = now + cfg.LegitInterval
				continue
			}
			if now >= c.next {
				b, pinned := lb.Dispatch(now, c.key, true)
				c.pinned = pinned
				if pinned {
					c.backend = b
				}
				c.next = now + cfg.LegitInterval
			}
		}
		if cfg.Guard != nil {
			cfg.Guard(now, table)
		}
		if now < cfg.UpdateAt && now+step >= cfg.UpdateAt {
			res.TableOccupancy = table.Len()
			for _, c := range legit {
				if !c.pinned {
					res.UnpinnedLegit++
				}
			}
			lb.UpdatePool()
			for _, c := range legit {
				if c.pinned {
					continue
				}
				if lb.statelessHash(c.key) != c.backend {
					res.BrokenLegit++
				}
			}
		}
	}
	res.BrokenFraction = float64(res.BrokenLegit) / float64(cfg.LegitConns)
	res.Rejected = table.Rejected
	return res
}
