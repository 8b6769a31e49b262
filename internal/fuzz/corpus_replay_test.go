package fuzz

import "testing"

// TestCorpusReplay is the regression gate over the committed reproducer
// corpus: every entry must (a) run clean on current code and (b) — when it
// carries a debug hook — violate its recorded rule again with the
// historical bug re-introduced, proving both that the bug stays fixed and
// that the oracle that caught it is still sharp.
func TestCorpusReplay(t *testing.T) {
	entries, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected at least the 3 seed corpus entries, found %d", len(entries))
	}
	// The subtest is named for the engine's event queue, the 4-ary heap.
	t.Run("heap", func(t *testing.T) {
		for _, e := range entries {
			e := e
			t.Run(e.Name, func(t *testing.T) {
				if err := e.Scenario.Validate(); err != nil {
					t.Fatalf("corpus scenario invalid: %v", err)
				}
				if err := Replay(e); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}
