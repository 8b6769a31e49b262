package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dui/internal/campaign"
	"dui/internal/netsim"
)

// TestReportPinned pins the text-mode output of a failing campaign — the
// FAIL and shrink lines, the summary line, and the -corpus reproducer
// files — to digests recorded when text mode ran on its own executor.
// The campaign re-introduces the link-failure queue-flush bug so it has
// failures to render; it finds three (trials 5, 10 and 22).
func TestReportPinned(t *testing.T) {
	netsim.DebugHooks.DisableFailureFlush = true
	defer func() { netsim.DebugHooks.DisableFailureFlush = false }()

	raw, err := campaign.Execute(context.Background(), campaign.JobSpec{Kind: campaign.KindFuzz,
		Fuzz: &campaign.FuzzSpec{Seeds: 40, RootSeed: 11, Shrink: true}}, campaign.Env{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var res campaign.FuzzResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := report(&out, &res, 0, "", false); err != nil {
		t.Fatal(err)
	}
	if got := digest(out.Bytes()); got != "c217eb8cf9633ec5b008cad034e29ec4b32396ed39354132b4ac9ddd17c55665" {
		t.Errorf("text report digest %s changed:\n%s", got, out.Bytes())
	}

	dir := t.TempDir()
	if err := report(&out, &res, 0, dir, true); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"seed-8d4bc9e17ab0580e.json": "bac6147e54c2f4b2820341cfe0a60d8eeb11dee0c16444bff6c66dd5a0436d2e",
		"seed-29f04eae09f1af60.json": "19197cf450b1823e8a3c742811613996573c0668ee8fc02b8bff83e19e11957c",
		"seed-c25c1c57a4cd1cf6.json": "067f304784ac56395921a47255d1a7ac9f2f8578aaa7eeaa272bd616ec21b052",
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Fatalf("wrote %d corpus files, want %d", len(files), len(want))
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(b); got != want[filepath.Base(path)] {
			t.Errorf("%s: digest %s, want %s", filepath.Base(path), got, want[filepath.Base(path)])
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
