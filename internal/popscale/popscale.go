// Package popscale runs Blink at PoP scale: tens of thousands of monitored
// prefixes and millions of concurrently active flows, streamed — never
// materialized — through flat per-prefix selector state.
//
// The pieces, and where they live:
//
//   - workload: trace.PopShard, the prefix-interleaved streaming generator.
//     Prefix pid's timeline is a pure function of (Seed, pid) via
//     stats.ChildAt, so it does not depend on shard boundaries or worker
//     scheduling.
//   - selector state: blink.MonitorBank, struct-of-arrays cells + scalar
//     records indexed by dense prefix id.
//   - sharding: the prefix space is cut into Shards contiguous ranges
//     fanned out over internal/runner; each shard feeds its own bank from
//     its own PopShard, and the merge is deterministic — per-prefix digests
//     are folded in prefix order and failures are reported sorted by
//     (prefix, time) — so Result is byte-identical at any shard count and
//     any worker count. TestRunMatchesOnePrefixBanks checks every prefix of
//     every split against its own audited one-prefix bank, so a wrong
//     segment offset or prefix tag cannot pass.
//
// The headline numbers — simulated flows/sec, packets (events)/sec, peak
// RSS at ≥1M active flows — are what duireport blink-pop and
// BenchmarkPopScale report into BENCH_4.json.
package popscale

import (
	"context"
	"math"
	"sort"
	"time"

	"dui/internal/blink"
	"dui/internal/runner"
	"dui/internal/trace"
)

// Config parameterizes one PoP-scale run. The zero value is NOT runnable;
// call Defaults (Run does) for the reference configuration: 1024 prefixes
// × 64 flows, 30 s horizon, an attack pool on every 16th prefix storming
// from t=15 s.
type Config struct {
	// Prefixes is the number of monitored /24s.
	Prefixes int
	// FlowsPerPrefix is each prefix's renewing legitimate flow population.
	FlowsPerPrefix int
	// Blink configures every per-prefix selector.
	Blink blink.Config
	// Duration is the simulated horizon in seconds.
	Duration float64
	// PPS is the mean per-flow legitimate packet rate.
	PPS float64
	// MeanFlowDuration is the exponential mean legitimate flow duration.
	MeanFlowDuration float64
	// Epoch is the generator's prefix-interleave granularity (seconds).
	Epoch float64
	// AttackedEvery puts a §3.1 attack pool on every k-th prefix (0 =
	// attack-free).
	AttackedEvery int
	// AttackFlows is the per-attacked-prefix pool size.
	AttackFlows int
	// AttackPPS is the attacker per-flow packet rate (default PPS).
	AttackPPS float64
	// StormAt is when attack pools switch to fake retransmissions
	// (default Duration/2; <0 disables the storm, occupancy only).
	StormAt float64
	// Seed is the root seed; prefix pid draws from stats.ChildAt(Seed, pid).
	Seed uint64
	// Shards is the number of contiguous prefix-range shards (default 32,
	// capped at Prefixes). Results are identical at any value.
	Shards int
	// Parallel bounds the worker pool running shards (0 = all cores).
	// Results are identical at any value.
	Parallel int
}

// Defaults fills zero fields and returns the config.
func (c Config) Defaults() Config {
	if c.Prefixes <= 0 {
		c.Prefixes = 1024
	}
	if c.FlowsPerPrefix <= 0 {
		c.FlowsPerPrefix = 64
	}
	c.Blink = c.Blink.Defaults()
	if c.Duration <= 0 {
		c.Duration = 30
	}
	if c.PPS <= 0 {
		c.PPS = 2
	}
	if c.MeanFlowDuration <= 0 {
		c.MeanFlowDuration = 6.35
	}
	if c.Epoch <= 0 {
		c.Epoch = 1
	}
	if c.AttackedEvery < 0 {
		c.AttackedEvery = 0
	}
	if c.AttackedEvery > 0 {
		if c.AttackFlows <= 0 {
			c.AttackFlows = 8
		}
		if c.AttackPPS <= 0 {
			c.AttackPPS = c.PPS
		}
		if c.StormAt == 0 {
			c.StormAt = c.Duration / 2
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 32
	}
	if c.Shards > c.Prefixes {
		c.Shards = c.Prefixes
	}
	return c
}

// popConfig translates to the generator's config.
func (c Config) popConfig() trace.PopConfig {
	storm := c.StormAt
	if storm < 0 {
		storm = 0 // PopConfig: 0 = never
	}
	return trace.PopConfig{
		Prefixes:       c.Prefixes,
		FlowsPerPrefix: c.FlowsPerPrefix,
		Dur:            trace.ExpDuration{MeanSec: c.MeanFlowDuration},
		PPS:            c.PPS,
		Until:          c.Duration,
		Epoch:          c.Epoch,
		Seed:           c.Seed,
		AttackedEvery:  c.AttackedEvery,
		AttackFlows:    c.AttackFlows,
		AttackPPS:      c.AttackPPS,
		StormAt:        storm,
	}
}

// ActiveFlows returns the total concurrently active flow count.
func (c Config) ActiveFlows() int {
	return c.popConfig().Defaults().ActiveFlows(0, c.Prefixes)
}

// Result is the deterministic outcome of a run plus wall-clock throughput.
// Every field except the three performance numbers at the bottom is a pure
// function of Config — byte-identical at any shard or worker count (the
// property `make pop-smoke` gates).
type Result struct {
	Config      Config
	ActiveFlows int
	// Packets is the total packet count fed through the selectors (the
	// "events" of the events/sec headline).
	Packets uint64
	// Failures holds every failure inference, sorted by (prefix, time).
	Failures []blink.BankFailure
	// PrefixesWithFailure counts prefixes that inferred at least once.
	PrefixesWithFailure int
	// AttackedPrefixes counts prefixes hosting an attack pool.
	AttackedPrefixes int
	// OccupiedCells is the end-state total across all selectors.
	OccupiedCells int
	// StateHash folds every prefix's end-state selector cells, window
	// counters, and failure times in prefix order — the byte-identity
	// fingerprint shard-count independence is checked against.
	StateHash uint64

	// Wall-clock performance (NOT deterministic; excluded from StateHash
	// and printed to stderr by duireport blink-pop).
	WallSeconds  float64
	FlowsPerSec  float64 // ActiveFlows × Duration / WallSeconds
	EventsPerSec float64 // Packets / WallSeconds
}

// shardOut is one shard's deterministic contribution.
type shardOut struct {
	lo, hi   int
	packets  uint64
	occupied int
	failures []blink.BankFailure // global prefix ids, shard feed order
	digests  []uint64            // per-prefix end-state digests, pid order
}

// Run executes the configured experiment: Shards contiguous prefix ranges
// on the trial pool, each streaming its own prefix-interleaved workload
// into its own MonitorBank, merged deterministically. The returned error
// is non-nil only when the context is cancelled.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	pop := cfg.popConfig()
	start := time.Now()

	outs, err := runner.Run(ctx, cfg.Shards, cfg.Seed,
		runner.Config{Workers: cfg.Parallel},
		func(_ context.Context, t runner.Trial) (shardOut, error) {
			lo := t.Index * cfg.Prefixes / cfg.Shards
			hi := (t.Index + 1) * cfg.Prefixes / cfg.Shards
			out := runShard(cfg, pop, lo, hi)
			t.ReportVirtual(cfg.Duration)
			return out, nil
		})
	if err != nil {
		return nil, err
	}

	res := &Result{Config: cfg, ActiveFlows: cfg.ActiveFlows()}
	h := fnvInit
	for _, out := range outs {
		res.Packets += out.packets
		res.OccupiedCells += out.occupied
		res.Failures = append(res.Failures, out.failures...)
		for _, d := range out.digests {
			h = fnvFold(h, d)
		}
	}
	// Shard feed order interleaves prefixes, so the concatenated failure
	// list depends on shard boundaries; (prefix, time) order does not.
	// The stable sort preserves each prefix's chronological order.
	sort.SliceStable(res.Failures, func(i, j int) bool {
		return res.Failures[i].Prefix < res.Failures[j].Prefix
	})
	last := -1
	for _, f := range res.Failures {
		if f.Prefix != last {
			res.PrefixesWithFailure++
			last = f.Prefix
		}
	}
	for pid := 0; pid < cfg.Prefixes; pid++ {
		if pop.Defaults().Attacked(pid) {
			res.AttackedPrefixes++
		}
	}
	res.StateHash = h

	res.WallSeconds = time.Since(start).Seconds()
	if res.WallSeconds > 0 {
		res.FlowsPerSec = float64(res.ActiveFlows) * cfg.Duration / res.WallSeconds
		res.EventsPerSec = float64(res.Packets) / res.WallSeconds
	}
	return res, nil
}

// runShard feeds prefixes [lo, hi) through a fresh bank and summarizes.
func runShard(cfg Config, pop trace.PopConfig, lo, hi int) shardOut {
	sh := trace.NewPopShard(pop, lo, hi)
	bank := blink.NewMonitorBank(hi-lo, cfg.Blink)

	out := shardOut{lo: lo, hi: hi}
	for {
		ev, ok := sh.Next()
		if !ok {
			break
		}
		bank.FeedHashed(ev.Prefix-lo, ev.Time, ev.Pkt, ev.FlowHash)
		out.packets++
	}

	out.occupied = bank.OccupiedTotal()
	out.digests = make([]uint64, hi-lo)
	for local := 0; local < hi-lo; local++ {
		out.digests[local] = prefixDigest(bank, local)
	}
	for _, f := range bank.Failures() {
		out.failures = append(out.failures, blink.BankFailure{Prefix: f.Prefix + lo, Now: f.Now})
	}
	return out
}

// prefixDigest folds one prefix's end-state selector into a 64-bit
// fingerprint: every cell's occupancy, flow key, timestamps, sequence
// tracking, and count flags, plus the incremental window counters and the
// failure times. Two banks whose digests agree for every prefix hold the
// same selector decisions bit for bit (up to 64-bit hashing).
func prefixDigest(b *blink.MonitorBank, p int) uint64 {
	h := fnvInit
	for _, c := range b.CellsAt(p) {
		h = fnvFold(h, boolBit(c.Occupied)|boolBit(c.Finished)<<1|boolBit(c.HasRetr())<<2|boolBit(c.Counted())<<3)
		if !c.Occupied {
			continue
		}
		h = fnvFold(h, uint64(c.Key.Src)<<32|uint64(c.Key.Dst))
		h = fnvFold(h, uint64(c.Key.SrcPort)<<32|uint64(c.Key.DstPort)<<16|uint64(c.Key.Proto))
		h = fnvFold(h, math.Float64bits(c.SampledAt))
		h = fnvFold(h, math.Float64bits(c.LastSeen))
		h = fnvFold(h, uint64(c.LastSeq))
		if c.HasRetr() {
			h = fnvFold(h, math.Float64bits(c.LastRetr))
		}
	}
	count, minLast := b.AuditWindowState(p)
	h = fnvFold(h, uint64(count))
	h = fnvFold(h, math.Float64bits(minLast))
	h = fnvFold(h, uint64(b.FailureCount(p)))
	return h
}

// FNV-1a over uint64 words (the folding used for digests and StateHash).
const (
	fnvInit  uint64 = 14695981039346656037
	fnvPrime uint64 = 1099511628211
)

func fnvFold(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime
		w >>= 8
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
