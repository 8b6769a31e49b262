package netsim

import (
	"math"
	"testing"
)

// Lane entries and ordinary At events must interleave in exact (t, seq)
// order.
func TestLaneMergesIntoTotalOrder(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		var got []uint64
		ln := e.NewLane(func(en LaneEntry) { got = append(got, en.Tag) })
		// Interleave: At(1), lane(1) — same time, At first by seq — then
		// lane(2), At(2.5), lane(3), At(3) (lane first by seq this time).
		e.At(1, func() { got = append(got, 100) })
		ln.Push(1, LaneEntry{Tag: 101})
		ln.Push(2, LaneEntry{Tag: 102})
		e.At(2.5, func() { got = append(got, 103) })
		ln.Push(3, LaneEntry{Tag: 104})
		e.At(3, func() { got = append(got, 105) })
		if e.Pending() != 6 {
			t.Fatalf("pending = %d", e.Pending())
		}
		if n := e.Run(); n != 6 {
			t.Fatalf("ran %d events", n)
		}
		want := []uint64{100, 101, 102, 103, 104, 105}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order = %v", got)
			}
		}
		if e.Executed() != 6 || e.Pending() != 0 {
			t.Fatalf("executed=%d pending=%d", e.Executed(), e.Pending())
		}
	})
}

// RunUntil must execute lane entries up to and including the horizon and
// leave the rest pending, exactly like At events.
func TestLaneRespectsRunUntilHorizon(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		var got []uint64
		ln := e.NewLane(func(en LaneEntry) { got = append(got, en.Tag) })
		for i := uint64(1); i <= 5; i++ {
			ln.Push(float64(i), LaneEntry{Tag: i})
		}
		if n := e.RunUntil(3); n != 3 || len(got) != 3 {
			t.Fatalf("n=%d got=%v", n, got)
		}
		if e.Pending() != 2 {
			t.Fatalf("pending = %d", e.Pending())
		}
		if e.Now() != 3 {
			t.Fatalf("now = %v", e.Now())
		}
		e.Run()
		if len(got) != 5 || e.Pending() != 0 {
			t.Fatalf("got=%v pending=%d", got, e.Pending())
		}
	})
}

// A lane burst must yield to an ordinary event scheduled between two
// entries, then resume.
func TestLaneBurstYieldsToEarlierEvent(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		var got []uint64
		ln := e.NewLane(func(en LaneEntry) { got = append(got, en.Tag) })
		ln.Push(1, LaneEntry{Tag: 1})
		ln.Push(3, LaneEntry{Tag: 3})
		e.At(2, func() { got = append(got, 2) })
		e.Run()
		for i, want := range []uint64{1, 2, 3} {
			if got[i] != want {
				t.Fatalf("order = %v", got)
			}
		}
	})
}

// Push validation mirrors At: NaN and past times panic, and so does
// breaking the FIFO monotonicity contract that CanPush guards.
func TestLanePushValidation(t *testing.T) {
	cases := []struct {
		name string
		f    func(e *Engine, ln *Lane)
	}{
		{"nan", func(e *Engine, ln *Lane) { ln.Push(math.NaN(), LaneEntry{}) }},
		{"past", func(e *Engine, ln *Lane) {
			e.At(5, func() {})
			e.RunUntil(5)
			ln.Push(4, LaneEntry{})
		}},
		{"non-monotone", func(e *Engine, ln *Lane) {
			ln.Push(10, LaneEntry{})
			ln.Push(9, LaneEntry{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			ln := e.NewLane(func(LaneEntry) {})
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f(e, ln)
		})
	}
}

// CanPush reports the fallback condition without side effects.
func TestLaneCanPush(t *testing.T) {
	e := NewEngine()
	ln := e.NewLane(func(LaneEntry) {})
	if !ln.CanPush(0) {
		t.Fatal("empty lane must accept any time")
	}
	ln.Push(5, LaneEntry{})
	if ln.CanPush(4.9) {
		t.Fatal("regressing time must be rejected")
	}
	if !ln.CanPush(5) || !ln.CanPush(6) {
		t.Fatal("equal and later times must be accepted")
	}
}

// Flag marks a pending entry's OK field and ignores executed positions.
func TestLaneFlag(t *testing.T) {
	e := NewEngine()
	var oks []bool
	ln := e.NewLane(func(en LaneEntry) { oks = append(oks, en.OK) })
	p0 := ln.Push(1, LaneEntry{})
	p1 := ln.Push(2, LaneEntry{})
	if p1 != p0+1 || ln.NextPos() != p1+1 {
		t.Fatalf("positions %d %d next %d", p0, p1, ln.NextPos())
	}
	ln.Flag(p1)
	e.Run()
	if len(oks) != 2 || oks[0] || !oks[1] {
		t.Fatalf("oks = %v", oks)
	}
	ln.Flag(p0) // already executed: must be a no-op, not a corruption
}

// A lane callback may push into its own lane mid-drain; the new entry
// must run at its proper time, not be lost or double-armed.
func TestLaneReentrantPush(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		var got []uint64
		var ln *Lane
		ln = e.NewLane(func(en LaneEntry) {
			got = append(got, en.Tag)
			if en.Tag < 5 {
				ln.Push(e.Now()+1, LaneEntry{Tag: en.Tag + 1})
			}
		})
		ln.Push(1, LaneEntry{Tag: 1})
		e.Run()
		if len(got) != 5 {
			t.Fatalf("got = %v", got)
		}
		for i, v := range got {
			if v != uint64(i+1) {
				t.Fatalf("got = %v", got)
			}
		}
		if e.Pending() != 0 || e.Executed() != 5 {
			t.Fatalf("pending=%d executed=%d", e.Pending(), e.Executed())
		}
	})
}

// The ring must survive growth while wrapped (head mid-buffer).
func TestLaneRingGrowth(t *testing.T) {
	e := NewEngine()
	var got []uint64
	ln := e.NewLane(func(en LaneEntry) { got = append(got, en.Tag) })
	tag := uint64(0)
	tm := 0.0
	// Repeatedly half-drain and refill past the initial capacity so head
	// wraps, then force growth.
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			tag++
			tm++
			ln.Push(tm, LaneEntry{Tag: tag})
		}
		e.RunUntil(tm - 20)
	}
	e.Run()
	if len(got) != int(tag) {
		t.Fatalf("ran %d of %d entries", len(got), tag)
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("order broken at %d: %v", i, got[i-1:i+1])
		}
	}
}
