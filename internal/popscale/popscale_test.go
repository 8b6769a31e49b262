package popscale

import (
	"context"
	"reflect"
	"testing"

	"dui/internal/audit"
	"dui/internal/blink"
)

func testConfig() Config {
	return Config{
		Prefixes: 48, FlowsPerPrefix: 16,
		Duration: 15, PPS: 3, MeanFlowDuration: 3,
		AttackedEvery: 4, AttackFlows: 40, StormAt: 7,
		Seed: 11,
	}
}

// splits are the shard × worker layouts the determinism tests run: one
// shard on one worker, uneven shards, one prefix per shard, and more
// workers than a clean division of the prefix space.
var splits = []struct{ shards, parallel int }{{1, 1}, {7, 1}, {48, 4}, {5, 3}}

// TestRunShardAndWorkerIndependence is the determinism criterion at unit
// scale: every deterministic Result field — state hash, packet count,
// failures, occupancy — is identical whether the prefix space runs as one
// shard on one worker or as many unevenly-sized shards on several workers.
func TestRunShardAndWorkerIndependence(t *testing.T) {
	base := testConfig()

	ref := base
	ref.Shards, ref.Parallel = splits[0].shards, splits[0].parallel
	want, err := Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.Packets == 0 || len(want.Failures) == 0 {
		t.Fatalf("reference run is degenerate: %d packets, %d failures", want.Packets, len(want.Failures))
	}

	for _, tc := range splits[1:] {
		cfg := base
		cfg.Shards, cfg.Parallel = tc.shards, tc.parallel
		got, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("shards=%d parallel=%d: %v", tc.shards, tc.parallel, err)
		}
		if got.StateHash != want.StateHash {
			t.Errorf("shards=%d parallel=%d: state hash %016x != reference %016x",
				tc.shards, tc.parallel, got.StateHash, want.StateHash)
		}
		if got.Packets != want.Packets {
			t.Errorf("shards=%d parallel=%d: %d packets != reference %d",
				tc.shards, tc.parallel, got.Packets, want.Packets)
		}
		if got.OccupiedCells != want.OccupiedCells {
			t.Errorf("shards=%d parallel=%d: %d occupied cells != reference %d",
				tc.shards, tc.parallel, got.OccupiedCells, want.OccupiedCells)
		}
		if !reflect.DeepEqual(got.Failures, want.Failures) {
			t.Errorf("shards=%d parallel=%d: failure list diverges from reference",
				tc.shards, tc.parallel)
		}
	}
}

// onePrefixBanks is the reference the bank tests compare Run against: it
// feeds each prefix's standalone PrefixStream into its own one-prefix bank
// — no shard, no offset arithmetic — under the MonAudit selector
// invariants, and returns the per-prefix digests in pid order, the packet
// count and the failures tagged with global prefix ids. drop, if non-nil,
// withholds the packets it reports true for (prefix id, index in that
// prefix's stream) from the reference banks.
func onePrefixBanks(t *testing.T, cfg Config, drop func(pid, i int) bool) ([]uint64, uint64, []blink.BankFailure) {
	t.Helper()
	pop := cfg.popConfig().Defaults()
	digests := make([]uint64, cfg.Prefixes)
	var packets uint64
	var failures []blink.BankFailure
	for pid := 0; pid < cfg.Prefixes; pid++ {
		bank := blink.NewMonitorBank(1, cfg.Blink)
		mon := audit.AttachMonitor(bank, nil)
		st := pop.PrefixStream(pid)
		for i := 0; ; i++ {
			ev, ok := st.Next()
			if !ok {
				break
			}
			if drop != nil && drop(pid, i) {
				continue
			}
			bank.Feed(0, ev.Time, ev.Pkt)
			packets++
		}
		if err := mon.Check(cfg.Duration); err != nil {
			t.Fatalf("prefix %d: one-prefix bank invariants: %v", pid, err)
		}
		for _, f := range bank.Failures() {
			failures = append(failures, blink.BankFailure{Prefix: pid, Now: f.Now})
		}
		digests[pid] = prefixDigest(bank, 0)
	}
	return digests, packets, failures
}

// TestRunMatchesOnePrefixBanks checks segment offsets and prefix tags end
// to end: at every split, Run's state hash, packet count and failure list
// equal the onePrefixBanks reference with its per-prefix digests folded
// in prefix order. Every prefix is checked, so a packet or state landing
// in a neighbour's segment, or a failure tagged with a shard-local id,
// changes the hash or the list.
func TestRunMatchesOnePrefixBanks(t *testing.T) {
	cfg := testConfig().Defaults()
	digests, packets, failures := onePrefixBanks(t, cfg, nil)
	if packets == 0 || len(failures) == 0 {
		t.Fatalf("reference is degenerate: %d packets, %d failures", packets, len(failures))
	}
	h := fnvInit
	for _, d := range digests {
		h = fnvFold(h, d)
	}

	for _, tc := range splits {
		run := testConfig()
		run.Shards, run.Parallel = tc.shards, tc.parallel
		got, err := Run(context.Background(), run)
		if err != nil {
			t.Fatalf("shards=%d parallel=%d: %v", tc.shards, tc.parallel, err)
		}
		if got.StateHash != h {
			t.Errorf("shards=%d parallel=%d: state hash %016x != one-prefix banks' %016x",
				tc.shards, tc.parallel, got.StateHash, h)
		}
		if got.Packets != packets {
			t.Errorf("shards=%d parallel=%d: %d packets != one-prefix banks' %d",
				tc.shards, tc.parallel, got.Packets, packets)
		}
		if !reflect.DeepEqual(got.Failures, failures) {
			t.Errorf("shards=%d parallel=%d: failure list diverges from the one-prefix banks'",
				tc.shards, tc.parallel)
		}
	}
}

// TestOnePrefixBanksCatchDivergence pins that the reference comparison is
// sharp and local: when the reference withholds every 50th packet of one
// prefix, that prefix's digest — and only that prefix's — differs from
// the one runShard computes at every split, so a shard bug shows up
// against the prefix it corrupts rather than as an anonymous hash change.
func TestOnePrefixBanksCatchDivergence(t *testing.T) {
	const diverged = 6
	cfg := testConfig().Defaults()
	pop := cfg.popConfig()
	want, _, _ := onePrefixBanks(t, cfg, func(pid, i int) bool {
		return pid == diverged && i%50 == 0
	})

	for _, tc := range splits {
		var got []uint64
		for s := 0; s < tc.shards; s++ {
			lo, hi := s*cfg.Prefixes/tc.shards, (s+1)*cfg.Prefixes/tc.shards
			got = append(got, runShard(cfg, pop, lo, hi).digests...)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d digests, want %d", tc.shards, len(got), len(want))
		}
		var differ []int
		for pid := range want {
			if got[pid] != want[pid] {
				differ = append(differ, pid)
			}
		}
		if !reflect.DeepEqual(differ, []int{diverged}) {
			t.Errorf("shards=%d: prefixes whose digest differs = %v, want only [%d]",
				tc.shards, differ, diverged)
		}
	}
}

// TestRunSeedSensitivity pins that the state hash actually fingerprints
// the run: a different seed must produce a different hash (the smoke
// gate's cmp would otherwise pass vacuously).
func TestRunSeedSensitivity(t *testing.T) {
	a := testConfig()
	b := testConfig()
	b.Seed = 12
	ra, err := Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.StateHash == rb.StateHash {
		t.Fatalf("seeds 11 and 12 share state hash %016x", ra.StateHash)
	}
}

// TestRunFailureOrdering pins the merged failure list's contract: sorted
// by prefix, chronological within a prefix, counts consistent with
// PrefixesWithFailure, and only attacked prefixes fail (the storm is the
// sole failure mechanism in this workload).
func TestRunFailureOrdering(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 6
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("no failures inferred")
	}
	distinct := 0
	last := -1
	for i, f := range res.Failures {
		if f.Prefix < last {
			t.Fatalf("failure %d: prefix %d after %d", i, f.Prefix, last)
		}
		if f.Prefix != last {
			distinct++
			last = f.Prefix
		} else if f.Now < res.Failures[i-1].Now {
			t.Fatalf("prefix %d: failure times out of order (%g after %g)", f.Prefix, f.Now, res.Failures[i-1].Now)
		}
		if f.Prefix%cfg.AttackedEvery != 0 {
			t.Fatalf("unattacked prefix %d inferred a failure at %g", f.Prefix, f.Now)
		}
		if f.Now < cfg.StormAt {
			t.Fatalf("prefix %d inferred a failure at %g, before the storm at %g", f.Prefix, f.Now, cfg.StormAt)
		}
	}
	if distinct != res.PrefixesWithFailure {
		t.Fatalf("PrefixesWithFailure = %d, distinct prefixes in list = %d", res.PrefixesWithFailure, distinct)
	}
	if res.AttackedPrefixes != 12 {
		t.Fatalf("AttackedPrefixes = %d, want 12", res.AttackedPrefixes)
	}
}

// TestActiveFlows pins the headline denominator against the config.
func TestActiveFlows(t *testing.T) {
	cfg := testConfig().Defaults()
	if got, want := cfg.ActiveFlows(), 48*16+12*40; got != want {
		t.Fatalf("ActiveFlows = %d, want %d", got, want)
	}
}

// TestRunCancellation pins that a cancelled context aborts the run with
// the context's error instead of a partial result.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testConfig()); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}
