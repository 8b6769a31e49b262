package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dui/internal/campaign"
	"dui/internal/netsim"
)

// TestMaxNodesPastAddressPlanRejected: -max-nodes above the 255-host
// address plan is a usage error (exit 2) before any scenario is drawn,
// not a campaign whose generated scenarios all fail validation.
func TestMaxNodesPastAddressPlanRejected(t *testing.T) {
	stdout, stderr, code := run(t, "simfuzz", "-seeds", "4", "-max-nodes", "400", "-json")
	const msg = "simfuzz: campaign: fuzz job: max_nodes 400 exceeds the 255-host address plan\n"
	if code != 2 || len(stdout) != 0 || string(stderr) != msg {
		t.Errorf("exit %d, %d stdout bytes, stderr %q; want exit 2, no stdout, stderr %q", code, len(stdout), stderr, msg)
	}
}

// TestServerErrorExitStatus: a campaign the server fails to take exits 2
// under simfuzz, whose exit 1 means the oracles caught failures, and 1
// under the other campaign subcommands.
func TestServerErrorExitStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	for _, c := range []struct {
		tool string
		code int
	}{{"simfuzz", 2}, {"chaos-eval", 1}} {
		stdout, stderr, code := run(t, c.tool, "-server", srv.URL)
		if code != c.code || len(stdout) != 0 || !strings.HasPrefix(string(stderr), c.tool+": campaign: ") {
			t.Errorf("%s: exit %d, %d stdout bytes, stderr %q; want exit %d, no stdout, a %q error",
				c.tool, code, len(stdout), stderr, c.code, c.tool+": campaign: ")
		}
	}
}

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
	if err := fuzzReport(&out, &res, 0, "", false); err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "text report", out.Bytes(), "c217eb8cf9633ec5b008cad034e29ec4b32396ed39354132b4ac9ddd17c55665")

	dir := t.TempDir()
	if err := fuzzReport(&out, &res, 0, dir, true); err != nil {
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
		checkDigest(t, filepath.Base(path), b, want[filepath.Base(path)])
	}
}
