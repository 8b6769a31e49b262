//go:build !race

// Allocation guards: regressions in the zero-allocation hot paths fail
// `go test`, not just benchmarks. Excluded under -race, whose
// instrumentation changes inlining and allocation behavior.

package netsim

import "testing"

// TestEngineSteadyStateAllocs pins 0 allocs/op for the schedule-then-run
// cycle once the queue's backing storage has grown: pushing a value event
// reuses the heap's array, popping shrinks it in place.
func TestEngineSteadyStateAllocs(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		fn := func() {}
		// Warm the queue's capacity well past the steady-state population.
		for i := 0; i < 1024; i++ {
			e.After(float64(i)*1e-3, fn)
		}
		e.RunUntil(10)

		if avg := testing.AllocsPerRun(2000, func() {
			e.After(0.5, fn)
			e.RunUntil(e.Now() + 1)
		}); avg != 0 {
			t.Fatalf("Engine.After+RunUntil allocates %.1f objects/op, want 0", avg)
		}
	})
}

// TestLaneSteadyStateAllocs pins 0 allocs/op for the lane push-then-drain
// cycle: a warmed ring accepts entries and re-arms sentinels without any
// allocation — the whole point of routing link packets through lanes.
func TestLaneSteadyStateAllocs(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e := NewEngine()
		ln := e.NewLane(func(LaneEntry) {})
		for i := 0; i < 256; i++ {
			ln.Push(float64(i)*1e-3, LaneEntry{})
		}
		e.RunUntil(10)

		if avg := testing.AllocsPerRun(2000, func() {
			ln.Push(e.Now()+0.5, LaneEntry{Tag: ln.NextPos()})
			ln.Push(e.Now()+0.6, LaneEntry{})
			e.RunUntil(e.Now() + 1)
		}); avg != 0 {
			t.Fatalf("Lane.Push+RunUntil allocates %.1f objects/op, want 0", avg)
		}
	})
}
