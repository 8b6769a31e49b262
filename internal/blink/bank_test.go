package blink

import (
	"math"
	"reflect"
	"testing"

	"dui/internal/packet"
	"dui/internal/trace"
)

// popWorkload is the shared equivalence workload: a prefix-interleaved
// stream over a mixed population — every 4th prefix hosts an attack pool
// big enough to win the majority vote once its storm starts — so the
// comparison covers sampling, eviction, sequence tracking, genuine and
// fake retransmissions, sample resets, and failure inferences.
func popWorkload(prefixes int) trace.PopConfig {
	return trace.PopConfig{
		Prefixes: prefixes, FlowsPerPrefix: 24,
		Dur: trace.ExpDuration{MeanSec: 3}, PPS: 4,
		Until: 30, Seed: 0xbacca, Epoch: 0.5,
		AttackedEvery: 4, AttackFlows: 40, AttackPPS: 4, StormAt: 12,
	}.Defaults()
}

// TestMonitorBankMatchesMonitors pins segment offsets and prefix tagging:
// feeding N prefixes' interleaved packets through one MonitorBank leaves
// every prefix bit-identical — cells including unexported tracking fields,
// incremental window counters, failure times, and callback events — to N
// independent one-prefix banks fed the same per-prefix packets.
func TestMonitorBankMatchesMonitors(t *testing.T) {
	const prefixes = 32
	cfg := popWorkload(prefixes)
	short := Config{ResetPeriod: 20} // exercise sample resets within Until
	bank := NewMonitorBank(prefixes, short)

	mons := make([]*MonitorBank, prefixes)
	var wantFailures []BankFailure
	for p := range mons {
		mons[p] = NewMonitorBank(1, short)
		p := p
		mons[p].OnFailure(func(_ int, now float64) {
			wantFailures = append(wantFailures, BankFailure{Prefix: p, Now: now})
		})
	}

	var gotFailures []BankFailure
	bank.OnFailure(func(prefix int, now float64) {
		gotFailures = append(gotFailures, BankFailure{Prefix: prefix, Now: now})
	})
	var bankRetr, monRetr int
	bank.OnRetrans(func(prefix int, ev RetransEvent) { bankRetr++ })
	for _, m := range mons {
		m.OnRetrans(func(_ int, ev RetransEvent) { monRetr++ })
	}

	sh := trace.NewPopShard(cfg, 0, prefixes)
	n := 0
	for {
		ev, ok := sh.Next()
		if !ok {
			break
		}
		bank.Feed(ev.Prefix, ev.Time, ev.Pkt)
		mons[ev.Prefix].Feed(0, ev.Time, ev.Pkt)
		n++
	}
	if n == 0 {
		t.Fatal("workload produced no packets")
	}

	for p := 0; p < prefixes; p++ {
		if got, want := bank.CellsAt(p), mons[p].CellsAt(0); !reflect.DeepEqual(got, want) {
			t.Errorf("prefix %d: bank cells diverge from its one-prefix bank", p)
		}
		bc, bm := bank.AuditWindowState(p)
		sc, sm := mons[p].AuditWindowState(0)
		if bc != sc || bm != sm {
			t.Errorf("prefix %d: window counters (%d, %g) != one-prefix bank (%d, %g)", p, bc, bm, sc, sm)
		}
		want := mons[p].Failures()
		if got := bank.FailureCount(p); got != len(want) {
			t.Errorf("prefix %d: %d failures in bank, %d in its one-prefix bank", p, got, len(want))
			continue
		}
		i := 0
		for _, f := range bank.Failures() {
			if f.Prefix != p {
				continue
			}
			if f.Now != want[i].Now {
				t.Errorf("prefix %d: failure %d at %g in bank, %g in its one-prefix bank", p, i, f.Now, want[i].Now)
			}
			i++
		}
	}
	if len(gotFailures) == 0 {
		t.Fatal("workload inferred no failures; the storm regime is not being exercised")
	}
	if !reflect.DeepEqual(gotFailures, bank.Failures()) {
		t.Error("OnFailure callbacks diverge from the recorded failure list")
	}
	if !reflect.DeepEqual(gotFailures, wantFailures) {
		t.Error("bank failure callbacks diverge from the one-prefix banks'")
	}
	if bankRetr == 0 || bankRetr != monRetr {
		t.Errorf("bank saw %d retransmission events, one-prefix banks %d", bankRetr, monRetr)
	}
}

// TestMonitorBankRestart pins that a per-prefix Restart wipes exactly that
// prefix: the restarted prefix matches a restarted one-prefix bank and its
// neighbors are untouched.
func TestMonitorBankRestart(t *testing.T) {
	const prefixes = 4
	cfg := popWorkload(prefixes)
	bank := NewMonitorBank(prefixes, Config{})
	mons := make([]*MonitorBank, prefixes)
	for p := range mons {
		mons[p] = NewMonitorBank(1, Config{})
	}
	sh := trace.NewPopShard(cfg, 0, prefixes)
	last := 0.0
	for i := 0; i < 5000; i++ {
		ev, ok := sh.Next()
		if !ok {
			break
		}
		bank.Feed(ev.Prefix, ev.Time, ev.Pkt)
		mons[ev.Prefix].Feed(0, ev.Time, ev.Pkt)
		last = ev.Time
	}
	bank.Restart(1, last)
	mons[1].Restart(0, last)
	for p := 0; p < prefixes; p++ {
		if !reflect.DeepEqual(bank.CellsAt(p), mons[p].CellsAt(0)) {
			t.Errorf("prefix %d diverges after restarting prefix 1", p)
		}
	}
	if got := bank.CountOccupied(1, nil); got != 0 {
		t.Errorf("restarted prefix still has %d occupied cells", got)
	}
}

// TestMonitorBankOccupiedTotal cross-checks the flat occupancy summary
// against the per-prefix counts.
func TestMonitorBankOccupiedTotal(t *testing.T) {
	const prefixes = 8
	cfg := popWorkload(prefixes)
	bank := NewMonitorBank(prefixes, Config{})
	sh := trace.NewPopShard(cfg, 0, prefixes)
	for i := 0; i < 20000; i++ {
		ev, ok := sh.Next()
		if !ok {
			break
		}
		bank.Feed(ev.Prefix, ev.Time, ev.Pkt)
	}
	sum := 0
	for p := 0; p < prefixes; p++ {
		sum += bank.CountOccupied(p, nil)
	}
	if sum == 0 {
		t.Fatal("no cells occupied")
	}
	if got := bank.OccupiedTotal(); got != sum {
		t.Errorf("OccupiedTotal = %d, per-prefix sum = %d", got, sum)
	}
}

// TestMonitorBankSegmentsIsolated pins that one prefix's storm cannot leak
// into a neighbor's segment: feeding only prefix 3 leaves every other
// prefix's cells zero and window counters empty.
func TestMonitorBankSegmentsIsolated(t *testing.T) {
	const prefixes = 5
	bank := NewMonitorBank(prefixes, Config{})
	pkt := packet.NewTCP(packet.MustParseAddr("20.0.0.1"), packet.MustParseAddr("100.64.3.9"),
		packet.TCPHeader{SrcPort: 1000, DstPort: 443, Seq: 7300, Flags: packet.FlagACK}, 1500)
	for i := 0; i < 1000; i++ {
		bank.Feed(3, float64(i)*0.001, pkt) // constant seq: retransmission storm
	}
	for p := 0; p < prefixes; p++ {
		if p == 3 {
			if bank.CountOccupied(p, nil) == 0 {
				t.Error("fed prefix has no occupied cells")
			}
			continue
		}
		if got := bank.CountOccupied(p, nil); got != 0 {
			t.Errorf("prefix %d has %d occupied cells without being fed", p, got)
		}
		if c, m := bank.AuditWindowState(p); c != 0 || !math.IsInf(m, 1) && m != 0 {
			t.Errorf("prefix %d window counters moved: (%d, %g)", p, c, m)
		}
	}
}

// TestMonitorBankObserversAccumulate pins the observer contract the
// pipeline, guard, auditor and oracle stack relies on: registering a
// second observer of a kind adds to the first, and both run, in
// registration order, on every event of that kind.
func TestMonitorBankObserversAccumulate(t *testing.T) {
	bank := NewMonitorBank(2, Config{Cells: 2, ResetPeriod: 10})
	var got []string
	note := func(event string, p int) {
		if p != 1 {
			t.Errorf("%s tagged with prefix %d, want 1", event, p)
		}
		got = append(got, event)
	}
	for _, name := range []string{"first", "second"} {
		name := name
		bank.OnSample(func(p int, now float64, key packet.FlowKey, cell int) { note("sample "+name, p) })
		bank.OnEvict(func(p int, ev Eviction) { note("evict "+name, p) })
		bank.OnRetrans(func(p int, ev RetransEvent) { note("retrans "+name, p) })
		bank.OnFailure(func(p int, now float64) { note("failure "+name, p) })
	}
	pkt := packet.NewTCP(1, Victim.Nth(1), packet.TCPHeader{SrcPort: 9, DstPort: 443, Flags: packet.FlagACK}, 1500)
	bank.Feed(1, 0, pkt)    // sample
	bank.Feed(1, 0.05, pkt) // first sequence number seen
	bank.Feed(1, 0.1, pkt)  // repeated: retransmission, at threshold 1 a failure
	bank.Feed(1, 10.5, pkt) // past the sample reset: reset-evict, then resample
	want := []string{
		"sample first", "sample second",
		"retrans first", "retrans second",
		"failure first", "failure second",
		"evict first", "evict second",
		"sample first", "sample second",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observer calls = %q, want %q", got, want)
	}
}
