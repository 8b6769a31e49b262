package netsim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// The engine-semantics tests here and in lane_test.go and alloc_test.go run
// as the subtest "heap", named for the engine's event queue, the 4-ary heap.

func TestEngineOrdersEvents(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		var got []float64
		for _, tm := range []float64{3, 1, 2, 1.5} {
			tm := tm
			e.At(tm, func() { got = append(got, tm) })
		}
		e.Run()
		if !sort.Float64sAreSorted(got) {
			t.Fatalf("events out of order: %v", got)
		}
		if e.Now() != 3 {
			t.Fatalf("clock = %v", e.Now())
		}
	})
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			e.At(5, func() { got = append(got, i) })
		}
		e.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("equal-time events not FIFO: %v", got)
			}
		}
	})
}

func TestEngineRunUntil(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		fired := 0
		e.At(1, func() { fired++ })
		e.At(2, func() { fired++ })
		e.At(3, func() { fired++ })
		if n := e.RunUntil(2); n != 2 || fired != 2 {
			t.Fatalf("n=%d fired=%d", n, fired)
		}
		if e.Now() != 2 {
			t.Fatalf("clock = %v", e.Now())
		}
		if e.Pending() != 1 {
			t.Fatalf("pending = %d", e.Pending())
		}
		e.RunUntil(10)
		if fired != 3 || e.Now() != 10 {
			t.Fatalf("fired=%d now=%v", fired, e.Now())
		}
	})
}

func TestEngineNestedScheduling(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		var trace []string
		e.At(1, func() {
			trace = append(trace, "a")
			e.After(0.5, func() { trace = append(trace, "b") })
			e.After(0, func() { trace = append(trace, "a2") }) // same-time follow-up
		})
		e.At(1.2, func() { trace = append(trace, "c") })
		e.Run()
		want := []string{"a", "a2", "c", "b"}
		for i := range want {
			if trace[i] != want[i] {
				t.Fatalf("trace = %v", trace)
			}
		}
	})
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		e.At(5, func() {})
		e.RunUntil(5)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		e.At(4, func() {})
	})
}

func TestEngineAfterRejectsInvalidDelay(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		for _, d := range []float64{-1, -1e-9, math.NaN()} {
			d := d
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("After(%v) did not panic", d)
					}
				}()
				NewEngine().After(d, func() {})
			}()
		}
		// +Inf is a valid (if useless) future time; it must not panic and
		// must not corrupt ordering of finite events.
		fired := false
		e.After(math.Inf(1), func() {})
		e.After(1, func() { fired = true })
		e.RunUntil(2)
		if !fired || e.Pending() != 1 {
			t.Fatalf("fired=%v pending=%d", fired, e.Pending())
		}
	})
}

func TestEngineAtRejectsNaN(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		defer func() {
			if recover() == nil {
				t.Fatal("At(NaN) did not panic")
			}
		}()
		e.At(math.NaN(), func() {})
	})
}

// TestEngineRunUntilRejectsNaN pins that a NaN horizon panics before any
// event runs. Every event time compares as not after NaN, so a run to NaN
// used to execute the whole queue — here a timer that re-arms itself 1000
// times — and then leave the clock wherever the last event put it; on an
// open system it never returned.
func TestEngineRunUntilRejectsNaN(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		left := 1000
		var tick func()
		tick = func() {
			if left--; left > 0 {
				e.After(1, tick)
			}
		}
		e.At(1, tick)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("RunUntil(NaN) did not panic")
				}
			}()
			e.RunUntil(math.NaN())
		}()
		if e.Executed() != 0 || e.Now() != 0 || e.Pending() != 1 {
			t.Fatalf("RunUntil(NaN) ran events: executed=%d now=%v pending=%d", e.Executed(), e.Now(), e.Pending())
		}
	})
}

func TestEngineClockMonotoneProperty(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		if err := quick.Check(func(times []float64) bool {
			e := NewEngine()
			last := -1.0
			ok := true
			for _, tm := range times {
				if tm < 0 || tm != tm { // negative or NaN
					continue
				}
				e.At(tm, func() {
					if e.Now() < last {
						ok = false
					}
					last = e.Now()
				})
			}
			e.Run()
			return ok
		}, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEngineEventBudgetTripsOnLivelock(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		e.SetEventBudget(1000)
		var spin func()
		spin = func() { e.After(0, spin) } // classic zero-delay self-scheduler
		e.At(1, spin)
		defer func() {
			le, ok := recover().(*LivelockError)
			if !ok {
				t.Fatalf("expected *LivelockError panic, got %v", le)
			}
			if le.Budget != 1000 || le.Now != 1 {
				t.Fatalf("LivelockError = %+v", le)
			}
			if le.Error() == "" {
				t.Fatal("empty error message")
			}
		}()
		e.Run()
		t.Fatal("Run returned despite livelock")
	})
}

func TestEngineNoBudgetMeansNoTrip(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		n := 0
		var spin func()
		spin = func() {
			if n++; n < 100000 {
				e.After(0, spin)
			}
		}
		e.At(1, spin)
		e.Run() // no budget set: a long (but finite) zero-delay chain completes
		if n != 100000 {
			t.Fatalf("n = %d", n)
		}
		if e.Executed() != 100000 {
			t.Fatalf("Executed = %d", e.Executed())
		}
	})
}

// Timestamps near the top of the float64 range, some of them equal, must
// drain in exact (t, seq) order: ascending time, equal times in scheduling
// order.
func TestEngineHugeTimestamps(t *testing.T) {
	e := NewEngine()
	var got []int
	for i, tm := range []float64{1e300, 3, 2e300, 1e300, 0.5, 1.5e300} {
		i := i
		e.At(tm, func() { got = append(got, i) })
	}
	e.Run()
	want := []int{4, 1, 0, 3, 5, 2}
	if len(got) != len(want) {
		t.Fatalf("executed %d of %d events: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Multiple +Inf events drain in scheduling order once all finite work is
// done.
func TestEngineInfinityDrainsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(math.Inf(1), func() { got = append(got, i) })
	}
	e.At(1, func() { got = append(got, -1) })
	e.Run()
	want := []int{-1, 0, 1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	if !math.IsInf(e.Now(), 1) {
		t.Fatalf("clock = %v", e.Now())
	}
}

// Pending and Executed must agree with the run's own count on every
// prefix: each scheduled event is either still pending or executed.
func TestEnginePendingExecutedParity(t *testing.T) {
	e := NewEngine()
	const scheduled = 100
	for i := 0; i < scheduled; i++ {
		e.At(float64(i)*0.5, func() {})
	}
	ran := 0
	for cut := 5.0; cut < 60; cut += 7 {
		ran += e.RunUntil(cut)
		if uint64(ran) != e.Executed() || e.Pending()+ran != scheduled {
			t.Fatalf("at %v: ran=%d pending=%d executed=%d, want pending+executed=%d",
				cut, ran, e.Pending(), e.Executed(), scheduled)
		}
	}
}
