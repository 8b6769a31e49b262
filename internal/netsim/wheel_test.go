package netsim

import (
	"math"
	"testing"

	"dui/internal/stats"
)

// runOrder executes the same schedule on one engine per scheduler and
// returns each engine's execution order as the indices of the scheduled
// events. schedule receives a callback to register one event.
func runOrder(t *testing.T, build func(e *Engine, fire func(i int))) map[Scheduler][]int {
	t.Helper()
	out := map[Scheduler][]int{}
	for _, k := range schedulers {
		e := NewEngineSched(k)
		var got []int
		build(e, func(i int) { got = append(got, i) })
		e.Run()
		out[k] = got
	}
	return out
}

// assertSameOrder checks both schedulers produced the identical sequence.
func assertSameOrder(t *testing.T, got map[Scheduler][]int) {
	t.Helper()
	w, h := got[SchedulerWheel], got[SchedulerHeap]
	if len(w) != len(h) {
		t.Fatalf("event counts differ: wheel %d, heap %d", len(w), len(h))
	}
	for i := range w {
		if w[i] != h[i] {
			t.Fatalf("execution order diverges at %d: wheel %v, heap %v", i, w[:i+1], h[:i+1])
		}
	}
}

// Same-tick clustering: thousands of events inside what the wheel buckets
// as one slot (and many at bit-identical timestamps) must still fire in
// exact (t, seq) order.
func TestWheelSameTickFIFO(t *testing.T) {
	got := runOrder(t, func(e *Engine, fire func(i int)) {
		for i := 0; i < 3000; i++ {
			i := i
			// 10 µs apart, far below the initial 1 ms tick; every third
			// event shares its timestamp with the previous one.
			tm := 1.0 + float64(i/3)*1e-5
			e.At(tm, func() { fire(i) })
		}
	})
	assertSameOrder(t, got)
}

// Far-future events park in the overflow heap and must be promoted into
// the wheel, in order, as rotations reach them — including events whole
// rotations (1024 ticks) apart and interleaved near-term work.
func TestWheelOverflowPromotion(t *testing.T) {
	got := runOrder(t, func(e *Engine, fire func(i int)) {
		n := 0
		reg := func(tm float64) {
			i := n
			n++
			e.At(tm, func() { fire(i) })
		}
		for i := 0; i < 50; i++ {
			reg(1e4 + float64(i)*137) // far future: RTO/flap territory
		}
		for i := 0; i < 200; i++ {
			reg(float64(i) * 0.25) // near-term, inside early rotations
		}
		reg(math.Inf(1)) // beyond any horizon
	})
	assertSameOrder(t, got)
}

// Scheduling from inside callbacks lands events behind, at, and ahead of
// the wheel cursor mid-rotation; order must match the heap exactly.
func TestWheelNestedSchedulingAcrossSlots(t *testing.T) {
	got := runOrder(t, func(e *Engine, fire func(i int)) {
		n := 0
		var reg func(tm float64)
		reg = func(tm float64) {
			i := n
			n++
			e.At(tm, func() {
				fire(i)
				if n < 500 {
					reg(tm + 1e-5) // same slot at fine ticks
					reg(tm + 3.7)  // a different rotation entirely
				}
			})
		}
		reg(0.5)
	})
	assertSameOrder(t, got)
}

// Timestamps so large the tick is absorbed (start + tick == start): the
// wheel must degrade to heap behavior, not livelock. Pins the ensureReady
// no-progress guard.
func TestWheelHugeTimestamps(t *testing.T) {
	got := runOrder(t, func(e *Engine, fire func(i int)) {
		times := []float64{1e300, 3, 2e300, 1e300, 0.5, 1.5e300}
		for i, tm := range times {
			i := i
			e.At(tm, func() { fire(i) })
		}
	})
	assertSameOrder(t, got)
	if w := got[SchedulerWheel]; len(w) != 6 {
		t.Fatalf("executed %d of 6 events", len(w))
	}
}

// Multiple +Inf events drain in scheduling order once all finite work is
// done.
func TestWheelInfinityDrainsFIFO(t *testing.T) {
	e := NewEngineSched(SchedulerWheel)
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

// A dense burst — far more events than the spill threshold, all inside
// one initial slot — triggers the respread path; order must survive.
func TestWheelRespreadUnderDenseBurst(t *testing.T) {
	got := runOrder(t, func(e *Engine, fire func(i int)) {
		for i := 0; i < 5000; i++ {
			i := i
			e.At(1e-4+float64(i)*1e-8, func() { fire(i) })
		}
	})
	assertSameOrder(t, got)
}

// Randomized differential: clustered, sparse, tied, far-future, and
// nested-scheduled timestamps drawn from a seeded RNG; wheel and heap
// must execute the identical sequence.
func TestWheelHeapDifferentialRandom(t *testing.T) {
	trials := 50
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rng := stats.NewRNG(0xD1FF + uint64(trial))
		type ev struct {
			tm   float64
			kids int
		}
		evs := make([]ev, 400)
		for i := range evs {
			var tm float64
			switch rng.IntN(4) {
			case 0: // clustered around a hot instant
				tm = 10 + rng.Float64()*1e-3
			case 1: // uniform over a medium window
				tm = rng.Float64() * 100
			case 2: // far future
				tm = 1e4 + rng.Float64()*1e6
			default: // exact ties
				tm = float64(rng.IntN(20))
			}
			evs[i] = ev{tm: tm, kids: rng.IntN(3)}
		}
		got := runOrder(t, func(e *Engine, fire func(i int)) {
			for i, v := range evs {
				i, v := i, v
				e.At(v.tm, func() {
					fire(i)
					for k := 0; k < v.kids; k++ {
						kid := i*10 + k + 1000000
						e.After(float64(k)*0.125, func() { fire(kid) })
					}
				})
			}
		})
		assertSameOrder(t, got)
	}
}

// The wheel's Pending/Executed bookkeeping must agree with the heap's on
// every prefix of a run.
func TestWheelPendingExecutedParity(t *testing.T) {
	we := NewEngineSched(SchedulerWheel)
	he := NewEngineSched(SchedulerHeap)
	for _, e := range []*Engine{we, he} {
		e := e
		for i := 0; i < 100; i++ {
			e.At(float64(i)*0.5, func() {})
		}
	}
	for cut := 5.0; cut < 60; cut += 7 {
		wn, hn := we.RunUntil(cut), he.RunUntil(cut)
		if wn != hn || we.Pending() != he.Pending() || we.Executed() != he.Executed() {
			t.Fatalf("at %v: wheel (n=%d pend=%d exec=%d) heap (n=%d pend=%d exec=%d)",
				cut, wn, we.Pending(), we.Executed(), hn, he.Pending(), he.Executed())
		}
	}
}

// The slot table starts at minSlots and grows toward maxSlots only as the
// pending population outgrows it: a sparse run keeps the small table, a
// dense circulating population reaches the full one, and both execute in
// the heap's exact order while the table grows under them.
func TestWheelSlotTableFitsPopulation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pop       int
		wantSlots int
	}{
		{"sparse", 4, minSlots},
		{"dense", 6000, maxSlots},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wheel *wheelSched
			got := runOrder(t, func(e *Engine, fire func(i int)) {
				if w, ok := e.sched.(*wheelSched); ok {
					wheel = w
				}
				// pop events each re-arm themselves 20 times at seeded
				// exponential gaps, so the population stays level.
				rng := stats.NewRNG(0x5107 + uint64(tc.pop))
				for i := 0; i < tc.pop; i++ {
					i, left := i, 20
					var step func()
					step = func() {
						fire(i)
						if left--; left > 0 {
							e.After(rng.Exp(1e-3*float64(tc.pop)), step)
						}
					}
					e.At(rng.Float64(), step)
				}
			})
			assertSameOrder(t, got)
			if n := len(wheel.slots); n != tc.wantSlots {
				t.Fatalf("slot table has %d slots after a population of %d, want %d", n, tc.pop, tc.wantSlots)
			}
		})
	}
}
