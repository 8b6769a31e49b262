package dui

import (
	"math"
	"testing"

	"dui/internal/blink"
	"dui/internal/pcc"
	"dui/internal/stats"
	"dui/internal/trace"
)

// These tests call the lab's headline entry points from the module root,
// the way cmd/duireport does; the heavy behavioural coverage lives in the
// internal packages.

func TestRequiredQmFacade(t *testing.T) {
	qm := blink.RequiredQm(64, 32, 8.37, 510)
	if qm <= 0 || qm > 0.0525 {
		t.Fatalf("required qm = %v", qm)
	}
}

func TestForcedOscillationFacade(t *testing.T) {
	eps, amp := pcc.ForcedOscillation(0.05, 6)
	if len(eps) != 6 || amp != 0.10 {
		t.Fatalf("trace=%v amp=%v", eps, amp)
	}
}

func TestSurveyFacade(t *testing.T) {
	prefixes := trace.SyntheticSurvey(4, stats.NewRNG(1))
	rows := blink.RunSurvey(blink.Config{}, prefixes, 150, 2, 0)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TR <= 0 || math.IsNaN(r.RequiredQm) {
			t.Fatalf("bad row %+v", r)
		}
	}
}
