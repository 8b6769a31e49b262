package main

import (
	"context"
	"fmt"
	"time"

	"dui/internal/blink"
	"dui/internal/popscale"
	"dui/internal/trace"
)

// popBench is PoP-scale Blink: a million active flows streamed through
// per-prefix selectors, sharded over the trial runner.
type popBench struct {
	cfg   popscale.Config // defaulted
	flows int
}

func openPop(o options, _ string) (instance, error) {
	cfg := o.size.pop
	cfg.Seed = o.seed
	cfg = cfg.Defaults()
	return &popBench{cfg: cfg, flows: cfg.ActiveFlows()}, nil
}

func (b *popBench) close() error { return nil }

// run executes one popscale.Run with parallel workers and returns its
// deterministic outcome as text.
func (b *popBench) run(parallel int) ([]byte, *popscale.Result, error) {
	cfg := b.cfg
	cfg.Parallel = parallel
	res, err := popscale.Run(context.Background(), cfg)
	if err != nil {
		return nil, nil, err
	}
	if res.ActiveFlows != b.flows {
		return nil, nil, fmt.Errorf("pop run simulated %d active flows, want %d", res.ActiveFlows, b.flows)
	}
	out := fmt.Sprintf("state %016x packets %d failures %d\n", res.StateHash, res.Packets, len(res.Failures))
	return []byte(out), res, nil
}

// measure repeats the run; an op is one active flow simulated for one
// second of the horizon.
func (b *popBench) measure(d time.Duration) measurement {
	return repeat(d, float64(b.flows)*b.cfg.Duration, func() ([]byte, error) {
		out, _, err := b.run(b.cfg.Parallel)
		return out, err
	})
}

// popConfig is the generator configuration popscale.Run derives from
// its Config.
func popConfig(c popscale.Config) trace.PopConfig {
	storm := c.StormAt
	if storm < 0 {
		storm = 0
	}
	return trace.PopConfig{
		Prefixes: c.Prefixes, FlowsPerPrefix: c.FlowsPerPrefix,
		Dur: trace.ExpDuration{MeanSec: c.MeanFlowDuration}, PPS: c.PPS,
		Until: c.Duration, Epoch: c.Epoch, Seed: c.Seed,
		AttackedEvery: c.AttackedEvery, AttackFlows: c.AttackFlows,
		AttackPPS: c.AttackPPS, StormAt: storm,
	}
}

// trace times, shard by shard, a pass that only generates the packets
// and a pass that also feeds them to a monitor bank, then the whole run
// on one worker; their differences split generation, selector and merge.
func (b *popBench) trace(tr *tracer, profPath string) (map[string]float64, tally, error) {
	var t tally
	ref, _, err := b.run(b.cfg.Parallel)
	t.check(err)
	if err != nil {
		return nil, t, err
	}
	start := time.Now()
	one, _, err := b.run(1)
	wall1 := time.Since(start).Seconds()
	t.check(sameBytes("one-worker pop run", one, ref, err))

	p, err := startProfile(profPath)
	if err != nil {
		return nil, t, err
	}
	pc := popConfig(b.cfg)
	shards := b.cfg.Shards
	var nextPkts, feedPkts uint64
	root := tr.begin(0, "pop")
	for s := 0; s < shards; s++ {
		lo, hi := s*b.cfg.Prefixes/shards, (s+1)*b.cfg.Prefixes/shards
		tr.timed(root, "trace.next_pass", func() {
			sh := trace.NewPopShard(pc, lo, hi)
			for _, ok := sh.Next(); ok; _, ok = sh.Next() {
				nextPkts++
			}
		})
		tr.timed(root, "blink.feed_pass", func() {
			sh := trace.NewPopShard(pc, lo, hi)
			bank := blink.NewMonitorBank(hi-lo, b.cfg.Blink)
			for ev, ok := sh.Next(); ok; ev, ok = sh.Next() {
				bank.Feed(ev.Prefix-lo, ev.Time, ev.Pkt)
				feedPkts++
			}
		})
	}
	var traced []byte
	var res *popscale.Result
	tr.timed(root, "popscale.Run", func() { traced, res, err = b.run(1) })
	tr.end(root)
	shares, perr := p.stop()
	t.check(sameBytes("traced pop run", traced, ref, err))
	if err == nil && (nextPkts != res.Packets || feedPkts != res.Packets) {
		t.check(fmt.Errorf("traced pop passes saw %d and %d packets, the run %d", nextPkts, feedPkts, res.Packets))
	}
	if perr != nil {
		return nil, t, perr
	}

	vals := map[string]float64{}
	for name, share := range shares {
		vals["cpu."+name+".share"] = share
	}
	next, feed := tr.total("trace.next_pass"), tr.total("blink.feed_pass")
	pkts := float64(nextPkts)
	vals["pop.packets"] = pkts
	if pkts > 0 {
		vals["trace.ns_per_pkt"] = 1e9 * next / pkts
		vals["blink.feed_ns_per_pkt"] = 1e9 * (feed - next) / pkts
	}
	vals["popscale.merge_s"] = tr.total("popscale.Run") - feed
	vals["trace_overhead_s"] = tr.total("pop") - wall1
	return vals, t, nil
}
