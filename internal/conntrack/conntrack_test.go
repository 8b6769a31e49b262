package conntrack

import (
	"testing"
	"testing/quick"

	"dui/internal/packet"
	"dui/internal/stats"
)

func key(i int) packet.FlowKey {
	return packet.FlowKey{Src: packet.Addr(i), Dst: 1, SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP}
}

func TestTableInsertLookup(t *testing.T) {
	tb := NewTable(4, 10)
	if !tb.Insert(0, key(1), 3) {
		t.Fatal("insert failed")
	}
	b, ok := tb.Lookup(1, key(1))
	if !ok || b != 3 {
		t.Fatalf("lookup = %v,%v", b, ok)
	}
	if _, ok := tb.Lookup(1, key(2)); ok {
		t.Fatal("phantom entry")
	}
}

func TestTableCapacityAndRejection(t *testing.T) {
	tb := NewTable(2, 10)
	tb.Insert(0, key(1), 0)
	tb.Insert(0, key(2), 0)
	if tb.Insert(0, key(3), 0) {
		t.Fatal("over-capacity insert accepted")
	}
	if tb.Rejected != 1 {
		t.Fatalf("rejected = %d", tb.Rejected)
	}
	// Re-inserting an existing key succeeds (refresh).
	if !tb.Insert(1, key(1), 5) {
		t.Fatal("refresh failed")
	}
	if b, _ := tb.Lookup(1, key(1)); b != 5 {
		t.Fatal("refresh did not update backend")
	}
}

func TestTableIdleExpiry(t *testing.T) {
	tb := NewTable(2, 5)
	tb.Insert(0, key(1), 0)
	tb.Insert(0, key(2), 0)
	// key(1) stays fresh, key(2) idles out.
	tb.Lookup(4, key(1))
	if !tb.Insert(6, key(3), 0) {
		t.Fatal("expiry did not free space")
	}
	if _, ok := tb.Lookup(6, key(2)); ok {
		t.Fatal("expired entry still present")
	}
	if _, ok := tb.Lookup(6, key(1)); !ok {
		t.Fatal("fresh entry evicted")
	}
	if tb.Expired == 0 {
		t.Fatal("expiry not counted")
	}
}

func TestTableOccupancyNeverExceedsCap(t *testing.T) {
	if err := quick.Check(func(ops []uint16) bool {
		tb := NewTable(8, 3)
		now := 0.0
		for _, op := range ops {
			now += float64(op%7) / 10
			tb.Insert(now, key(int(op%50)), Backend(op%4))
			if tb.Len() > 8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDispatchPinningSurvivesPoolUpdate(t *testing.T) {
	rng := stats.NewRNG(1)
	tb := NewTable(100, 10)
	lb := NewLoadBalancer(tb, 8, rng)
	k := key(7)
	b1, pinned := lb.Dispatch(0, k, true)
	if !pinned {
		t.Fatal("pin failed")
	}
	lb.UpdatePool()
	b2, pinned := lb.Dispatch(1, k, false)
	if !pinned || b2 != b1 {
		t.Fatalf("pinned connection moved: %v -> %v", b1, b2)
	}
}

func TestStatelessFallbackMovesOnUpdate(t *testing.T) {
	rng := stats.NewRNG(2)
	tb := NewTable(1, 10)
	lb := NewLoadBalancer(tb, 64, rng)
	lb.Dispatch(0, key(1), true) // fills the single slot
	// key(2) cannot pin: stateless.
	before, pinned := lb.Dispatch(0, key(2), true)
	if pinned {
		t.Fatal("should not have pinned")
	}
	moved := false
	for v := 0; v < 8; v++ {
		lb.UpdatePool()
		after, _ := lb.Dispatch(0.01, key(2), false)
		if after != before {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("stateless mapping never moved across 8 pool updates")
	}
}

// TestExhaustionAttack is the §3.2 claim: the SYN flood squeezes
// legitimate state out of the limited table, and the next pool update
// breaks a large share of legitimate connections. Without the flood (or
// with "software-scale" memory) nothing breaks.
func TestExhaustionAttack(t *testing.T) {
	clean := RunExhaustion(ExhaustionConfig{Seed: 3})
	if clean.BrokenLegit != 0 || clean.UnpinnedLegit != 0 {
		t.Fatalf("clean run broke connections: %+v", clean)
	}
	// Flood: 4000-entry table, 5s timeout -> 2000 SYN/s sustains ~10000
	// candidates for 4000 slots.
	attacked := RunExhaustion(ExhaustionConfig{Seed: 3, AttackSYNRate: 2000})
	if attacked.TableOccupancy < attacked.Config.TableCap*9/10 {
		t.Fatalf("table not saturated: %d", attacked.TableOccupancy)
	}
	if attacked.BrokenFraction < 0.3 {
		t.Fatalf("attack broke only %.0f%% of legit connections", 100*attacked.BrokenFraction)
	}
	if attacked.Rejected == 0 {
		t.Fatal("no state pressure recorded")
	}
	// The software-based counterpart (plentiful memory) shrugs it off.
	software := RunExhaustion(ExhaustionConfig{Seed: 3, AttackSYNRate: 2000, TableCap: 1 << 20})
	if software.BrokenLegit != 0 {
		t.Fatalf("software-scale table still broke %d connections", software.BrokenLegit)
	}
}

// TestExhaustionMonotone: more flood, more damage.
func TestExhaustionMonotone(t *testing.T) {
	lo := RunExhaustion(ExhaustionConfig{Seed: 4, AttackSYNRate: 900})
	hi := RunExhaustion(ExhaustionConfig{Seed: 4, AttackSYNRate: 4000})
	if hi.BrokenFraction < lo.BrokenFraction {
		t.Fatalf("damage not monotone: %v -> %v", lo.BrokenFraction, hi.BrokenFraction)
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTable(0, 1) },
		func() { NewTable(1, 0) },
		func() { NewLoadBalancer(NewTable(1, 1), 0, stats.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
