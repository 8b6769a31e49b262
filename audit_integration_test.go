package dui

import (
	"testing"

	"dui/internal/audit"
	"dui/internal/blink"
)

// fig2Traced runs a Fig 2 experiment with a MonAudit (and recorder)
// attached to every trial, returning the flattened trace after verifying
// the selector invariants held on each run.
func fig2Traced(t *testing.T, cfg blink.Fig2Config, workers int) []audit.Event {
	t.Helper()
	cfg.Parallel = workers
	n := cfg.Defaults().Runs
	recs := make([]*audit.Recorder, n)
	auds := make([]*audit.MonAudit, n)
	cfg.ObserveTrial = func(run int, m *blink.MonitorBank) {
		recs[run] = audit.NewRecorder()
		auds[run] = audit.AttachMonitor(m, recs[run])
	}
	res := blink.RunFig2(cfg)
	for run, a := range auds {
		if a == nil {
			t.Fatalf("trial %d was never observed", run)
		}
		if err := a.Check(res.Config.Duration); err != nil {
			t.Fatalf("workers=%d run %d: %v", workers, run, err)
		}
	}
	return audit.Flatten(recs)
}

// TestFig2AuditedTraceParity is the executable form of the repo's
// bit-identity contract: a sequential and a parallel Fig 2 run must emit
// exactly the same selector event sequence, and every trial must satisfy
// the selector invariants. A divergence fails with the first differing
// event — the same localization duireport simtrace gives on saved traces.
func TestFig2AuditedTraceParity(t *testing.T) {
	cfg := blink.Fig2Config{Runs: 4, Duration: 60, LegitFlows: 300, MeanFlowDuration: 8}
	assertParity(t, cfg)
}

// TestFig2AuditedTraceParityFullScale repeats the parity check near the
// experiment's real scale. It only runs under DUI_AUDIT=1 (`make audit`),
// keeping the default suite fast.
func TestFig2AuditedTraceParityFullScale(t *testing.T) {
	if !audit.EnabledFromEnv() {
		t.Skip("set DUI_AUDIT=1 to run the full-scale audited parity check")
	}
	cfg := blink.Fig2Config{Runs: 10, Duration: 250, LegitFlows: 1000, MeanFlowDuration: 8}
	assertParity(t, cfg)
}

func assertParity(t *testing.T, cfg blink.Fig2Config) {
	seq := fig2Traced(t, cfg, 1)
	par := fig2Traced(t, cfg, 4)
	if len(seq) == 0 {
		t.Fatal("no selector events recorded")
	}
	if idx, diverged := audit.Diff(seq, par); diverged {
		get := func(evs []audit.Event) any {
			if idx < len(evs) {
				return evs[idx]
			}
			return "(trace ended)"
		}
		t.Fatalf("sequential and parallel traces diverge at event #%d:\n  workers=1: %v\n  workers=4: %v",
			idx, get(seq), get(par))
	}
}
