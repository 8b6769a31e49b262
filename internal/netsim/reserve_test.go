package netsim

import (
	"math"
	"slices"
	"testing"

	"dui/internal/stats"
)

// TestReservedKeyRunsWhereAtWould schedules the same events twice: once
// with At, and once reserving each odd event's key at the moment At would
// have scheduled it but queueing it only later, in reverse order, some
// from inside earlier events. Both runs must execute in the same order.
func TestReservedKeyRunsWhereAtWould(t *testing.T) {
	rng := stats.NewRNG(7)
	times := make([]float64, 200)
	for i := range times {
		times[i] = float64(1 + rng.IntN(20)) // many equal-time ties
	}
	order := func(reserve bool) []int {
		e := NewEngine()
		var got []int
		var late []func()
		for i, tm := range times {
			fn := func() { got = append(got, i) }
			if !reserve || i%2 == 0 {
				e.At(tm, fn)
				continue
			}
			k := e.Reserve(tm)
			late = append(late, func() { e.AtKey(k, fn) })
		}
		// Half the late events are queued now, the other half by an event
		// at time 0 that runs before all of them: every reserved key is
		// still ahead of the frontier when it is scheduled.
		slices.Reverse(late)
		half := len(late) / 2
		for _, q := range late[:half] {
			q()
		}
		if reserve {
			e.At(0, func() {
				for _, q := range late[half:] {
					q()
				}
			})
		} else {
			e.At(0, func() {})
		}
		e.Run()
		return got
	}
	want, got := order(false), order(true)
	if !slices.Equal(got, want) {
		t.Fatalf("reserved keys ran in order %v, At order %v", got, want)
	}
}

func TestReserveAndAtKeyValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	early := e.Reserve(1)
	same := e.Reserve(2)
	e.At(2, func() {})
	e.RunUntil(2)
	mustPanic("AtKey at a passed key", func() { e.AtKey(early, func() {}) })
	mustPanic("AtKey at a passed key at the current time", func() { e.AtKey(same, func() {}) })
	mustPanic("AtKey at a never reserved key", func() { e.AtKey(Key{T: 3, Seq: 1000}, func() {}) })
	mustPanic("AtKey at NaN", func() { e.AtKey(Key{T: math.NaN(), Seq: 1}, func() {}) })
	mustPanic("Reserve at NaN", func() { e.Reserve(math.NaN()) })
	mustPanic("Reserve in the past", func() { e.Reserve(1.5) })
	// A key reserved at the frontier's own time after RunUntil is ahead of
	// it, exactly as At at that time is.
	ran := false
	k := e.Reserve(2)
	e.AtKey(k, func() { ran = true })
	e.RunUntil(2)
	if !ran {
		t.Fatal("an event at a key reserved at the current time did not run")
	}
}

// countingReserver reports a fixed set of reserved keys until they pass.
type countingReserver struct {
	e    *Engine
	keys []Key
}

func (r *countingReserver) Reserved() int {
	n := 0
	for _, k := range r.keys {
		if !r.e.Passed(k) {
			n++
		}
	}
	return n
}

// TestPendingCountsReservedKeys checks that a registered Reserver's keys
// count as pending events until the frontier passes them, and that the
// keys themselves never execute.
func TestPendingCountsReservedKeys(t *testing.T) {
	e := NewEngine()
	r := &countingReserver{e: e}
	e.CountReserved(r)
	e.At(1, func() {})
	r.keys = append(r.keys, e.Reserve(1), e.Reserve(3))
	e.At(3, func() {})
	if got := e.Pending(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
	e.RunUntil(1)
	if got := e.Pending(); got != 2 {
		t.Fatalf("pending after t=1 = %d, want 2", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 || e.Executed() != 2 {
		t.Fatalf("pending = %d executed = %d after the run, want 0 and 2", got, e.Executed())
	}
}
