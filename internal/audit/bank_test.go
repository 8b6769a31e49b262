package audit

import (
	"strings"
	"testing"

	"dui/internal/blink"
	"dui/internal/trace"
)

func bankWorkload() trace.PopConfig {
	return trace.PopConfig{
		Prefixes: 16, FlowsPerPrefix: 12,
		Dur: trace.ExpDuration{MeanSec: 3}, PPS: 3,
		Until: 28, Seed: 5,
		AttackedEvery: 4, AttackFlows: 64, StormAt: 10,
	}.Defaults()
}

// TestBankAuditCleanRun pins the happy path: a bank fed in lockstep with
// its shadows — through a storm that triggers real failure inferences —
// passes Check with no violations.
func TestBankAuditCleanRun(t *testing.T) {
	cfg := bankWorkload()
	bank := blink.NewMonitorBank(cfg.Prefixes, blink.Config{})
	a := AttachBank(bank, []int{0, 3, 4, 8, 8, 12}, nil) // 8 duplicated: must dedup
	if got := len(a.Prefixes()); got != 5 {
		t.Fatalf("audited %d prefixes, want 5 after dedup", got)
	}
	sh := trace.NewPopShard(cfg, 0, cfg.Prefixes)
	for {
		ev, ok := sh.Next()
		if !ok {
			break
		}
		bank.Feed(ev.Prefix, ev.Time, ev.Pkt)
		a.Feed(ev.Prefix, ev.Time, ev.Pkt)
	}
	if len(bank.Failures()) == 0 {
		t.Fatal("workload inferred no failures; the storm regime is not exercised")
	}
	if err := a.Check(cfg.Until); err != nil {
		t.Fatalf("clean lockstep run reported violations: %v", err)
	}
}

// TestBankAuditCatchesDivergence injects the exact defect class the
// auditor exists for — the bank seeing traffic its shadow does not — and
// requires Check to fail naming the corrupted prefix and only that one.
func TestBankAuditCatchesDivergence(t *testing.T) {
	cfg := bankWorkload()
	bank := blink.NewMonitorBank(cfg.Prefixes, blink.Config{})
	a := AttachBank(bank, []int{2, 6}, nil)
	sh := trace.NewPopShard(cfg, 0, cfg.Prefixes)
	i := 0
	for {
		ev, ok := sh.Next()
		if !ok {
			break
		}
		bank.Feed(ev.Prefix, ev.Time, ev.Pkt)
		// Drop every 50th packet of prefix 6 from the shadow's view.
		if !(ev.Prefix == 6 && i%50 == 0) {
			a.Feed(ev.Prefix, ev.Time, ev.Pkt)
		}
		i++
	}
	err := a.Check(cfg.Until)
	if err == nil {
		t.Fatal("Check passed despite the bank and shadow seeing different traffic")
	}
	if !strings.Contains(err.Error(), "prefix 6") {
		t.Fatalf("violation does not name the diverged prefix: %v", err)
	}
	if strings.Contains(err.Error(), "prefix 2") {
		t.Fatalf("violation blames the clean prefix 2: %v", err)
	}
	if len(a.Violations()) == 0 {
		t.Fatal("no structured violations recorded")
	}
}

// TestBankAuditRecordsShadowEvents pins that a Recorder attached through
// AttachBank sees the shadow banks' residence/failure events, the same
// stream AttachMonitor records for single-prefix experiments.
func TestBankAuditRecordsShadowEvents(t *testing.T) {
	cfg := bankWorkload()
	bank := blink.NewMonitorBank(cfg.Prefixes, blink.Config{})
	rec := NewRecorder()
	a := AttachBank(bank, []int{0, 4}, rec)
	sh := trace.NewPopShard(cfg, 0, cfg.Prefixes)
	for {
		ev, ok := sh.Next()
		if !ok {
			break
		}
		bank.Feed(ev.Prefix, ev.Time, ev.Pkt)
		a.Feed(ev.Prefix, ev.Time, ev.Pkt)
	}
	if err := a.Check(cfg.Until); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("recorder saw no shadow-bank events")
	}
}
