package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dui/internal/runner"
	"dui/internal/scenario"
)

// TestFaultModeReportsPinned pins the full reports — violations, event
// count, trace hash, reroutes, deliveries, final time — of 200 generated
// fault-mode scenarios to a digest recorded when every run still retained
// its whole trace and hashed it afterwards. The event heap, the trace
// digest and the link auditor all sit under these bytes, so a change to
// any of them that moves one event, one hash bit or one violation string
// fails here.
func TestFaultModeReportsPinned(t *testing.T) {
	const (
		wantEvents = 159662
		wantDigest = "5f8fe41088940c5b456b7f0519f4f39c3760ddc0096542e55521158b146946e5"
	)
	h := sha256.New()
	events := 0
	for _, seed := range runner.Seeds(7, 200) {
		rep := scenario.Run(Generate(seed, GenConfig{FaultModes: true}), scenario.Options{})
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		events += rep.EventCount
	}
	if events != wantEvents {
		t.Fatalf("200 fault-mode scenarios executed %d events, want %d", events, wantEvents)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Fatalf("report digest %s, want %s", got, wantDigest)
	}
}
