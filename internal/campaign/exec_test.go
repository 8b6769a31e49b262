package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dui/internal/campaign"
	"dui/internal/netsim"
)

// fuzzSpec is the small fuzzing campaign the execution tests share.
func fuzzSpec(seeds int) campaign.JobSpec {
	return campaign.JobSpec{Kind: campaign.KindFuzz,
		Fuzz: &campaign.FuzzSpec{Seeds: seeds, RootSeed: 1, MaxNodes: 8}}
}

// mustExecute runs Execute and fails the test on error.
func mustExecute(t *testing.T, spec campaign.JobSpec, env campaign.Env) []byte {
	t.Helper()
	out, err := campaign.Execute(context.Background(), spec, env)
	if err != nil {
		t.Fatalf("Execute(%+v): %v", env, err)
	}
	return out
}

// TestExecuteFuzzShardWorkerIndependence: the canonical result bytes of a
// fuzz campaign are identical at any worker count, shard split, and shard
// executor — including an external executor that returns its shard in
// bulk.
func TestExecuteFuzzShardWorkerIndependence(t *testing.T) {
	spec := fuzzSpec(24)
	want := mustExecute(t, spec, campaign.Env{Workers: 1, Shards: 1})

	var res campaign.FuzzResult
	if err := json.Unmarshal(want, &res); err != nil {
		t.Fatalf("result does not parse as FuzzResult: %v", err)
	}
	if res.Kind != campaign.KindFuzz || res.Seeds != 24 {
		t.Fatalf("result header = %+v", res)
	}

	if got := mustExecute(t, spec, campaign.Env{Workers: 4, Shards: 3}); !bytes.Equal(got, want) {
		t.Error("workers=4 shards=3 diverged from workers=1 shards=1")
	}
	// The external-executor path, with the shards themselves running
	// concurrently.
	ext := func(ctx context.Context, req campaign.ShardRequest) ([]campaign.TrialRec, error) {
		return campaign.RunShard(ctx, req)
	}
	got := mustExecute(t, spec, campaign.Env{Workers: 2, Shards: 5, ShardParallel: 3, RunShard: ext})
	if !bytes.Equal(got, want) {
		t.Error("external shard executor diverged from in-process execution")
	}
}

// TestExecuteChaosShardWorkerIndependence: same contract for the chaos
// kind (a reduced sweep, two intensity levels).
func TestExecuteChaosShardWorkerIndependence(t *testing.T) {
	spec := campaign.JobSpec{Kind: campaign.KindChaos,
		Chaos: &campaign.ChaosSpec{Trials: 1, Levels: 2, RootSeed: 1, FailAt: 4, Duration: 9}}
	want := mustExecute(t, spec, campaign.Env{Workers: 1, Shards: 1})
	var res campaign.ChaosResult
	if err := json.Unmarshal(want, &res); err != nil {
		t.Fatalf("result does not parse as ChaosResult: %v", err)
	}
	if len(res.Rows) != 2 || res.Rows[1].Eps != 1 {
		t.Fatalf("chaos rows = %+v", res.Rows)
	}
	if got := mustExecute(t, spec, campaign.Env{Workers: 2, Shards: 2}); !bytes.Equal(got, want) {
		t.Error("chaos campaign diverged across workers/shards")
	}
}

// TestExecuteAdvWorkerIndependence: the adv kind (one indivisible trial,
// internally parallel) returns identical bytes at any worker count.
func TestExecuteAdvWorkerIndependence(t *testing.T) {
	spec := campaign.JobSpec{Kind: campaign.KindAdv,
		Adv: &campaign.AdvSpec{Systems: []string{"blink"}, Guarded: "off",
			Seed: 1, Gens: 1, Pop: 4, Validate: 1, Quick: true}}
	want := mustExecute(t, spec, campaign.Env{Workers: 1})
	var res campaign.AdvResult
	if err := json.Unmarshal(want, &res); err != nil {
		t.Fatalf("result does not parse as AdvResult: %v", err)
	}
	if len(res.Systems) != 1 || res.Systems[0].System != "blink" {
		t.Fatalf("adv systems = %+v", res.Systems)
	}
	if got := mustExecute(t, spec, campaign.Env{Workers: 3}); !bytes.Equal(got, want) {
		t.Error("adv search diverged across worker counts")
	}
}

// TestExecuteRobustnessKind: the robustness matrix kind produces the
// full cell grid and identical bytes at any worker count and shard
// split — the matrix reseeds each trial from its cell coordinates, so
// the runner's linear seed expansion must not leak into results.
func TestExecuteRobustnessKind(t *testing.T) {
	spec := campaign.JobSpec{Kind: campaign.KindRobustness,
		Robustness: &campaign.RobustnessSpec{
			Systems:  []string{"sppifo", "ron"},
			Profiles: []string{"none", "gray"},
			Trials:   1, RootSeed: 1, Quick: true,
		}}
	want := mustExecute(t, spec, campaign.Env{Workers: 1, Shards: 1})
	var res campaign.RobustnessResult
	if err := json.Unmarshal(want, &res); err != nil {
		t.Fatalf("result does not parse as RobustnessResult: %v", err)
	}
	if res.Kind != campaign.KindRobustness || len(res.Systems) != 2 {
		t.Fatalf("result header = %+v", res)
	}
	// sppifo and ron each expose two attacks: 2 systems x 2 attacks x
	// 2 guard arms x 2 profiles.
	if len(res.Cells) != 16 {
		t.Fatalf("got %d cells, want 16", len(res.Cells))
	}
	for _, c := range res.Cells {
		if !c.Guarded && (c.DetectRate != 0 || c.FalseVetoRate != 0 || c.MeanChecks != 0) {
			t.Fatalf("guard-off cell carries guard readings: %+v", c)
		}
	}
	if got := mustExecute(t, spec, campaign.Env{Workers: 4, Shards: 3}); !bytes.Equal(got, want) {
		t.Error("robustness matrix diverged across workers/shards")
	}
}

// TestExecuteJournalResume: a campaign killed mid-run (simulated by
// context cancellation) resumes from its journal to byte-identical
// results, replaying journaled trials instead of re-running them.
func TestExecuteJournalResume(t *testing.T) {
	spec := fuzzSpec(16)
	want := mustExecute(t, spec, campaign.Env{Workers: 2})

	jpath := filepath.Join(t.TempDir(), "job.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	_, err := campaign.Execute(ctx, spec, campaign.Env{Workers: 2, Journal: jpath,
		OnProgress: func(p campaign.Progress) {
			if seen.Add(1) == 6 {
				cancel() // die mid-campaign
			}
		}})
	if err == nil {
		t.Fatal("canceled campaign reported success")
	}

	var first campaign.Progress
	got, err := campaign.Execute(context.Background(), spec, campaign.Env{Workers: 2, Journal: jpath,
		OnProgress: func(p campaign.Progress) {
			if first.Total == 0 {
				first = p
			}
		}})
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if first.Resumed == 0 {
		t.Error("resumed campaign replayed no journaled trials")
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed campaign diverged from uninterrupted run")
	}
}

// TestExecuteJournalRejectsForeignJob: a journal written for one campaign
// key cannot be resumed under another.
func TestExecuteJournalRejectsForeignJob(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "job.journal")
	mustExecute(t, fuzzSpec(2), campaign.Env{Workers: 1, Journal: jpath})
	_, err := campaign.Execute(context.Background(), fuzzSpec(3), campaign.Env{Workers: 1, Journal: jpath})
	if err == nil || !strings.Contains(err.Error(), "different job") {
		t.Fatalf("foreign journal accepted: err = %v", err)
	}
}

// TestExecuteBudgetPartial: once Env.Budget runs out no trial starts. A
// fuzz job returns the partial result — unstarted trials counted in
// Skipped, the failures it has still shrunk — any other kind fails, and
// the budget-stopped journal resumes without a budget to the bytes of an
// uninterrupted run.
func TestExecuteBudgetPartial(t *testing.T) {
	netsim.DebugHooks.DisableFailureFlush = true
	defer func() { netsim.DebugHooks.DisableFailureFlush = false }()

	const seeds = 40
	spec := campaign.JobSpec{Kind: campaign.KindFuzz,
		Fuzz: &campaign.FuzzSpec{Seeds: seeds, RootSeed: 11, Shrink: true}}
	want := mustExecute(t, spec, campaign.Env{Workers: 2})
	var full campaign.FuzzResult
	if err := json.Unmarshal(want, &full); err != nil {
		t.Fatal(err)
	}

	// Journal the first 15 trials — two of the campaign's three failures
	// (trials 5 and 10) among them — then kill the run.
	jpath := filepath.Join(t.TempDir(), "job.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := campaign.Execute(ctx, spec, campaign.Env{Workers: 1, Journal: jpath,
		OnProgress: func(p campaign.Progress) {
			if p.Done == 15 {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}

	// A budget that is already spent starts nothing: journaled trials
	// replay and the rest are skipped.
	tiny := campaign.Env{Workers: 2, Journal: jpath, Budget: time.Nanosecond}
	var part campaign.FuzzResult
	if err := json.Unmarshal(mustExecute(t, spec, tiny), &part); err != nil {
		t.Fatal(err)
	}
	if part.Skipped == 0 || part.Skipped == seeds {
		t.Fatalf("budget-stopped run skipped %d of %d trials", part.Skipped, seeds)
	}
	if len(part.Failures) == 0 {
		t.Fatal("budget-stopped run lost its journaled failures")
	}
	for i, f := range part.Failures {
		if f.Shrunk == nil {
			t.Fatalf("failure at trial %d not shrunk", f.Trial)
		}
		if !reflect.DeepEqual(f, full.Failures[i]) {
			t.Fatalf("failure at trial %d differs from the uninterrupted run's", f.Trial)
		}
	}

	rob := campaign.JobSpec{Kind: campaign.KindRobustness, Robustness: &campaign.RobustnessSpec{
		Systems: []string{"sppifo"}, Profiles: []string{"none"}, Trials: 1, Quick: true}}
	if _, err := campaign.Execute(context.Background(), rob, campaign.Env{Budget: time.Nanosecond}); err == nil ||
		!strings.Contains(err.Error(), "budget") {
		t.Fatalf("budget-stopped robustness job returned err = %v, want a budget error", err)
	}

	if got := mustExecute(t, spec, campaign.Env{Workers: 2, Journal: jpath}); !bytes.Equal(got, want) {
		t.Error("budget-stopped journal resumed to different bytes than an uninterrupted run")
	}
}

// TestExecuteBudgetJournalsStartedTrials: a budget that runs out
// mid-campaign lets running trials finish, and every trial that ran —
// and only those — is in the journal.
func TestExecuteBudgetJournalsStartedTrials(t *testing.T) {
	const seeds = 2000
	spec := fuzzSpec(seeds)
	jpath := filepath.Join(t.TempDir(), "job.journal")
	var res campaign.FuzzResult
	raw := mustExecute(t, spec, campaign.Env{Workers: 2, Journal: jpath, Budget: 20 * time.Millisecond})
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Skip("the campaign finished inside the budget")
	}
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if recs := bytes.Count(b, []byte("\n")) - 1; recs != seeds-res.Skipped {
		t.Fatalf("journal holds %d trials, result says %d ran", recs, seeds-res.Skipped)
	}
}

// TestExecuteExternalShardJournalsOnReturn: the parent journals an
// external executor's records only when the executor returns them. A
// shard executor that dies after finishing its trials but before
// returning them leaves none of its shard in the journal; a shard that
// returned is journaled whole.
func TestExecuteExternalShardJournalsOnReturn(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "job.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ext := func(ctx context.Context, req campaign.ShardRequest) ([]campaign.TrialRec, error) {
		recs, err := campaign.RunShard(ctx, req)
		if err != nil || req.Lo == 0 {
			return recs, err
		}
		cancel() // the second shard ran every trial, then dies
		return nil, ctx.Err()
	}
	_, err := campaign.Execute(ctx, fuzzSpec(8), campaign.Env{Workers: 1, Shards: 2, ShardParallel: 1,
		Journal: jpath, RunShard: ext})
	if err == nil {
		t.Fatal("campaign with a killed shard reported success")
	}
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")[1:] // after the header
	var trials []int
	for _, line := range lines {
		var rec campaign.TrialRec
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal record %q: %v", line, err)
		}
		trials = append(trials, rec.Trial)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(trials, want) {
		t.Fatalf("journaled trials %v, want the returned first shard %v", trials, want)
	}
}
