package trace

import (
	"testing"

	"dui/internal/packet"
)

func popTestConfig() PopConfig {
	return PopConfig{
		Prefixes: 12, FlowsPerPrefix: 16,
		Dur: ExpDuration{MeanSec: 2}, PPS: 3,
		Until: 12, Seed: 7, Epoch: 0.5,
		AttackedEvery: 3, AttackFlows: 6, StormAt: 6,
	}.Defaults()
}

// popRec is a comparable snapshot of one emitted packet. The stream owns
// the scratch Packet (and its TCP header) between Next calls, so the
// fields are copied out by value rather than retaining the pointer.
type popRec struct {
	t        float64
	src, dst packet.Addr
	size     int
	tcp      packet.TCPHeader
}

func record(t float64, p *packet.Packet) popRec {
	return popRec{t: t, src: p.Src, dst: p.Dst, size: p.Size, tcp: *p.TCP}
}

func drainShard(sh *PopShard, byPrefix map[int][]popRec) int {
	n := 0
	for {
		ev, ok := sh.Next()
		if !ok {
			return n
		}
		byPrefix[ev.Prefix] = append(byPrefix[ev.Prefix], record(ev.Time, ev.Pkt))
		n++
	}
}

// TestPopShardMatchesPrefixStreams is the determinism keystone: the
// shard's per-prefix subsequence is bit-identical to the standalone
// PrefixStream(pid) — same times, same packets (IDs included) — so a
// prefix's selector timeline cannot depend on which shard feeds it.
func TestPopShardMatchesPrefixStreams(t *testing.T) {
	cfg := popTestConfig()
	got := map[int][]popRec{}
	if n := drainShard(NewPopShard(cfg, 0, cfg.Prefixes), got); n == 0 {
		t.Fatal("shard produced no packets")
	}
	for pid := 0; pid < cfg.Prefixes; pid++ {
		st := cfg.PrefixStream(pid)
		sub := got[pid]
		if len(sub) == 0 {
			t.Fatalf("prefix %d: no packets in the shard subsequence", pid)
		}
		i := 0
		for {
			ev, ok := st.Next()
			if !ok {
				break
			}
			if i >= len(sub) {
				t.Fatalf("prefix %d: shard subsequence ends at %d packets, standalone stream continues", pid, len(sub))
			}
			if want := record(ev.Time, ev.Pkt); sub[i] != want {
				t.Fatalf("prefix %d packet %d: shard %+v != standalone %+v", pid, i, sub[i], want)
			}
			i++
		}
		if i != len(sub) {
			t.Fatalf("prefix %d: shard emitted %d packets, standalone stream %d", pid, len(sub), i)
		}
	}
}

// TestPopShardShardingInvariant pins that cutting the prefix space into
// shards changes nothing: the union of [0,5) and [5,12) equals the single
// shard [0,12) prefix by prefix, and an Epoch change reorders the
// interleaving without touching any per-prefix subsequence.
func TestPopShardShardingInvariant(t *testing.T) {
	cfg := popTestConfig()
	whole := map[int][]popRec{}
	nWhole := drainShard(NewPopShard(cfg, 0, cfg.Prefixes), whole)

	split := map[int][]popRec{}
	nSplit := drainShard(NewPopShard(cfg, 0, 5), split)
	nSplit += drainShard(NewPopShard(cfg, 5, cfg.Prefixes), split)
	if nWhole != nSplit {
		t.Fatalf("single shard emitted %d packets, split shards %d", nWhole, nSplit)
	}

	coarse := cfg
	coarse.Epoch = 2
	reEpoch := map[int][]popRec{}
	drainShard(NewPopShard(coarse, 0, cfg.Prefixes), reEpoch)

	for pid := 0; pid < cfg.Prefixes; pid++ {
		for name, other := range map[string][]popRec{"split": split[pid], "epoch=2": reEpoch[pid]} {
			if len(other) != len(whole[pid]) {
				t.Fatalf("prefix %d: %s subsequence has %d packets, single shard %d",
					pid, name, len(other), len(whole[pid]))
			}
			for i := range other {
				if other[i] != whole[pid][i] {
					t.Fatalf("prefix %d packet %d: %s diverges from single shard", pid, i, name)
				}
			}
		}
	}
}

// TestPopShardTimeOrder pins the two ordering contracts the consumers
// rely on: per-prefix times never decrease (the MonitorBank feed contract),
// and the global interleave never emits a packet from an epoch earlier
// than the one being swept (times are within Epoch of the sweep floor).
func TestPopShardTimeOrder(t *testing.T) {
	cfg := popTestConfig()
	sh := NewPopShard(cfg, 0, cfg.Prefixes)
	lastPer := make([]float64, cfg.Prefixes)
	floor := 0.0
	for {
		ev, ok := sh.Next()
		if !ok {
			break
		}
		if ev.Time < lastPer[ev.Prefix] {
			t.Fatalf("prefix %d time went backwards: %g after %g", ev.Prefix, ev.Time, lastPer[ev.Prefix])
		}
		lastPer[ev.Prefix] = ev.Time
		if ev.Time < floor-cfg.Epoch {
			t.Fatalf("interleave emitted t=%g while sweeping epoch floor %g", ev.Time, floor)
		}
		if ev.Time > floor {
			floor = ev.Time
		}
	}
}

// TestPopConfigActiveFlows pins the headline denominator arithmetic.
func TestPopConfigActiveFlows(t *testing.T) {
	cfg := popTestConfig()
	// 12 prefixes × 16 flows + attacked {0,3,6,9} × 6 attack flows.
	if got, want := cfg.ActiveFlows(0, cfg.Prefixes), 12*16+4*6; got != want {
		t.Fatalf("ActiveFlows = %d, want %d", got, want)
	}
	if got, want := cfg.ActiveFlows(3, 6), 3*16+1*6; got != want {
		t.Fatalf("ActiveFlows(3,6) = %d, want %d", got, want)
	}
}
