//go:build !race

// Allocation guards, excluded under -race, whose instrumentation changes
// inlining and allocation behavior.

package sketch

import "testing"

// TestHashPathZeroAllocs pins 0 allocs/op for the per-packet sketch
// operations on a warm table: positions go to a stack array and FNV-1a
// is computed inline.
func TestHashPathZeroAllocs(t *testing.T) {
	fr := New(1024, 3)
	b := NewBloom(1024, 3)
	for id := FlowID(0); id < 64; id++ {
		fr.Add(id) // the flow set is warm: no map growth below
		b.Add(id)
	}
	id := FlowID(0)
	for name, op := range map[string]func(){
		"Add":       func() { fr.Add(id % 64) },
		"AddPacket": func() { fr.AddPacket(id) },
		"Bloom.Add": func() { b.Add(id) },
		"Contains":  func() { b.Contains(id) },
	} {
		if avg := testing.AllocsPerRun(1000, func() { op(); id++ }); avg != 0 {
			t.Fatalf("%s allocates %.1f objects/op, want 0", name, avg)
		}
	}
}
