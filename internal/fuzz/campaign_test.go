package fuzz_test

// Campaign-level properties of scenario fuzzing, checked through the one
// executor every fuzz campaign runs on: internal/campaign's fuzz kind,
// with its job journal as the checkpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dui/internal/audit"
	"dui/internal/campaign"
	"dui/internal/netsim"
	"dui/internal/scenario"
)

// fuzzJob is a fuzz campaign spec over the default generator bounds.
func fuzzJob(seeds int, root uint64, faults, shrink bool) campaign.JobSpec {
	return campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &campaign.FuzzSpec{
		Seeds: seeds, RootSeed: root, Faults: faults, Shrink: shrink}}
}

// execute runs spec and returns its result bytes, the decoded result, and
// how many trials were replayed from env.Journal.
func execute(ctx context.Context, spec campaign.JobSpec, env campaign.Env) ([]byte, campaign.FuzzResult, int, error) {
	resumed := 0
	next := env.OnProgress
	env.OnProgress = func(p campaign.Progress) {
		resumed = p.Resumed
		if next != nil {
			next(p)
		}
	}
	var res campaign.FuzzResult
	raw, err := campaign.Execute(ctx, spec, env)
	if err == nil {
		err = json.Unmarshal(raw, &res)
	}
	return raw, res, resumed, err
}

// mustExecute is execute on a background context, failing t on error.
func mustExecute(t *testing.T, spec campaign.JobSpec, env campaign.Env) ([]byte, campaign.FuzzResult, int) {
	t.Helper()
	raw, res, resumed, err := execute(context.Background(), spec, env)
	if err != nil {
		t.Fatal(err)
	}
	return raw, res, resumed
}

// On current (fixed) code, a campaign must come back clean: the oracles
// have no false positives over the generator's whole behavior space.
func TestCampaignCleanOnCurrentCode(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 25
	}
	_, res, _ := mustExecute(t, fuzzJob(n, 11, false, false), campaign.Env{})
	if len(res.Failures) > 0 {
		f := res.Failures[0]
		b, _ := json.Marshal(f.Scenario)
		t.Fatalf("clean code produced %d failures; first: seed=%#x rule=%s %v\nscenario: %s",
			len(res.Failures), f.Seed, f.Rule, f.Violations[0], b)
	}
	if res.Skipped != 0 {
		t.Fatalf("%d trials skipped without a budget", res.Skipped)
	}
}

// TestFaultCampaignCleanOnCurrentCode is the joint fault-plane/oracle
// sweep: scenarios drawn with every benign fault mode enabled must still
// satisfy every invariant and replay deterministically.
func TestFaultCampaignCleanOnCurrentCode(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 25
	}
	_, res, _ := mustExecute(t, fuzzJob(n, 23, true, false), campaign.Env{})
	if len(res.Failures) > 0 {
		f := res.Failures[0]
		t.Fatalf("fault campaign found %d failures on clean code; first: seed=%#x rule=%s %v\n%s",
			len(res.Failures), f.Seed, f.Rule, f.Violations[0], f.Scenario.Size())
	}
}

// The headline acceptance property: re-introducing the PR 3 link-failure
// queue-flush bug through its test-only hook, the fuzzer finds it within
// 500 seeds, shrinks the reproducer to at most 4 nodes and 3 flows, and
// produces the identical result bytes on every worker count and rerun.
func TestCampaignCatchesReintroducedFlushBug(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-seed campaign")
	}
	netsim.DebugHooks.DisableFailureFlush = true
	defer func() { netsim.DebugHooks.DisableFailureFlush = false }()

	spec := fuzzJob(500, 7, false, true)
	raw, res, _ := mustExecute(t, spec, campaign.Env{Workers: 4})
	var hit *campaign.FuzzFailure
	for i := range res.Failures {
		if res.Failures[i].Rule == audit.RuleQueueSurvives {
			hit = &res.Failures[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("500 seeds found no %s violation (failures: %d)", audit.RuleQueueSurvives, len(res.Failures))
	}
	if hit.Shrunk == nil {
		t.Fatal("no shrunk reproducer")
	}
	flows := 0
	for _, w := range hit.Shrunk.Workloads {
		flows += w.Flows
	}
	if len(hit.Shrunk.Nodes) > 4 || flows > 3 {
		b, _ := json.Marshal(hit.Shrunk)
		t.Fatalf("reproducer not minimal: %s\n%s", hit.Shrunk.Size(), b)
	}
	// The shrunk scenario must still reproduce on a fresh run.
	rep := scenario.Run(hit.Shrunk, scenario.Options{})
	if !rep.HasRule(audit.RuleQueueSurvives) {
		t.Fatalf("shrunk reproducer does not reproduce: %v", rep.Violations)
	}

	// Worker-count independence: 1 worker and 4 workers (and a rerun)
	// find the same failures and shrink them to the same reproducers.
	for _, workers := range []int{1, 4} {
		if again, _, _ := mustExecute(t, spec, campaign.Env{Workers: workers}); !bytes.Equal(again, raw) {
			t.Fatalf("workers=%d: result bytes differ from the first run", workers)
		}
	}
}

// TestCheckpointResumeIdenticalVerdict is the crash-recovery contract: a
// campaign killed mid-run and resumed from its checkpoint (the job
// journal) produces the byte-identical result of an uninterrupted run,
// re-running only the trials the journal misses.
func TestCheckpointResumeIdenticalVerdict(t *testing.T) {
	// Re-introduce the flush bug so the campaign has real failures to
	// carry across the resume.
	netsim.DebugHooks.DisableFailureFlush = true
	defer func() { netsim.DebugHooks.DisableFailureFlush = false }()

	const seeds = 40
	spec := fuzzJob(seeds, 11, false, true)
	full, res, _ := mustExecute(t, spec, campaign.Env{Workers: 2})
	if len(res.Failures) == 0 {
		t.Fatal("hooked campaign found nothing; the resume test needs failures to carry")
	}

	// First attempt: cancel after 15 completed trials — the journal keeps
	// whatever finished before the kill.
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, _, err := execute(ctx, spec, campaign.Env{Workers: 2, Journal: path,
		OnProgress: func(p campaign.Progress) {
			if p.Done == 15 {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned %v, want context.Canceled", err)
	}

	// Resume: recorded trials replay, the rest run fresh.
	got, _, resumed := mustExecute(t, spec, campaign.Env{Workers: 2, Journal: path})
	if resumed == 0 || resumed == seeds {
		t.Fatalf("resume replayed %d of %d trials; the kill must land mid-campaign", resumed, seeds)
	}
	if !bytes.Equal(got, full) {
		t.Fatalf("resumed result differs from uninterrupted run:\nfull:    %s\nresumed: %s", full, got)
	}

	// A second resume over the now-complete journal replays everything.
	again, _, resumed := mustExecute(t, spec, campaign.Env{Workers: 2, Journal: path})
	if resumed != seeds {
		t.Fatalf("complete journal resumed %d of %d trials", resumed, seeds)
	}
	if !bytes.Equal(again, full) {
		t.Fatal("fully-replayed result differs from uninterrupted run")
	}
}

// TestCheckpointRejectsMismatchedCampaign pins the binding: a checkpoint
// written under one campaign spec must refuse any other, the shrink flag
// included.
func TestCheckpointRejectsMismatchedCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	mustExecute(t, fuzzJob(5, 1, false, false), campaign.Env{Journal: path})
	for name, spec := range map[string]campaign.JobSpec{
		"root-seed": fuzzJob(5, 2, false, false),
		"seeds":     fuzzJob(6, 1, false, false),
		"gen":       fuzzJob(5, 1, true, false),
		"shrink":    fuzzJob(5, 1, false, true),
	} {
		if _, _, _, err := execute(context.Background(), spec, campaign.Env{Journal: path}); err == nil {
			t.Errorf("%s mismatch accepted a foreign checkpoint", name)
		} else if !strings.Contains(err.Error(), "different job") {
			t.Errorf("%s mismatch: unexpected error %v", name, err)
		}
	}
}

// TestCheckpointToleratesTornFinalLine simulates a kill mid-append: the
// torn record is discarded and every complete one still replays.
func TestCheckpointToleratesTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	spec := fuzzJob(5, 1, false, false)
	want, _, _ := mustExecute(t, spec, campaign.Env{Journal: path})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"trial": 4, "da`) // the kill landed mid-write
	f.Close()
	got, _, resumed := mustExecute(t, spec, campaign.Env{Journal: path})
	if resumed != 5 {
		t.Fatalf("resumed %d of 5 after torn append", resumed)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result after torn append differs")
	}
}

// TestCheckpointRejectsForeignFile pins the magic check, including a file
// in the retired standalone fuzz-checkpoint format: it is refused, never
// overwritten.
func TestCheckpointRejectsForeignFile(t *testing.T) {
	for name, content := range map[string]string{
		"text":         "hello\n",
		"retired-fuzz": `{"magic":"dui-fuzz-checkpoint","version":1,"root_seed":1,"seeds":5}` + "\n",
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := execute(context.Background(), fuzzJob(5, 1, false, false), campaign.Env{Journal: path}); err == nil {
			t.Errorf("%s: non-journal file accepted", name)
		}
		if b, _ := os.ReadFile(path); string(b) != content {
			t.Errorf("%s: rejected file was modified", name)
		}
	}
}
