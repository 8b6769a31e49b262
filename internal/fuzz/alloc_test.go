//go:build !race

// Allocation guards, excluded under -race, whose instrumentation changes
// inlining and allocation behavior.

package fuzz

import (
	"runtime"
	"testing"

	"dui/internal/runner"
	"dui/internal/scenario"
)

// TestAuditedRunAllocs caps what one audited scenario run allocates. The
// fixed costs that used to dominate a short run — a full-size timing-wheel
// slot table, the retained event trace and its flattened copy, a link-name
// string per link event, a closure per streamed packet, a built path per
// route — must not come back: this 790-event fault-mode run allocated
// ~3100 objects and ~490 KiB when it carried them, and ~1070 objects and
// ~92 KiB without.
func TestAuditedRunAllocs(t *testing.T) {
	const (
		maxObjects = 1400
		maxBytes   = 128 << 10
		runs       = 10
	)
	scn := Generate(runner.Seeds(7, 1)[0], GenConfig{FaultModes: true})
	if rep := scenario.Run(scn, scenario.Options{}); rep.EventCount != 790 {
		t.Fatalf("scenario executed %d events, want 790", rep.EventCount)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scenario.Run(scn, scenario.Options{})
	}
	runtime.ReadMemStats(&after)
	objects := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if objects > maxObjects || bytes > maxBytes {
		t.Fatalf("audited scenario run allocates %d objects and %d bytes, want <= %d and <= %d",
			objects, bytes, maxObjects, maxBytes)
	}
}
