package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dui/internal/buildinfo"
	"dui/internal/campaign"
)

// startServer stands up a campaign server over dir and an HTTP front for
// it, returning a client. Close order (HTTP first) is handled by cleanup.
func startServer(t *testing.T, dir string, opts campaign.Options) (*campaign.Server, *campaign.Client, func()) {
	t.Helper()
	srv, err := campaign.NewServer(dir, opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	stop := func() {
		ts.Close()
		srv.Close()
	}
	return srv, campaign.NewClient(ts.URL), stop
}

// TestServerEndToEnd: submit a fuzz job over the API, stream its progress
// via SSE, and verify the served result is byte-identical to direct
// inline execution — the server-vs-direct determinism gate.
func TestServerEndToEnd(t *testing.T) {
	spec := fuzzSpec(12)
	direct := mustExecute(t, spec, campaign.Env{Workers: 1})

	_, c, stop := startServer(t, t.TempDir(), campaign.Options{Workers: 2})
	defer stop()
	ctx := context.Background()

	v, err := c.Version(ctx)
	if err != nil || v.Revision != buildinfo.Revision() {
		t.Fatalf("Version = %+v, %v (want revision %s)", v, err, buildinfo.Revision())
	}

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var snaps []campaign.JobStatus
	fin, err := c.Stream(ctx, st.ID, func(js campaign.JobStatus) { snaps = append(snaps, js) })
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if fin.State != campaign.JobDone {
		t.Fatalf("final state = %s (%s)", fin.State, fin.Error)
	}
	if len(snaps) == 0 || snaps[len(snaps)-1].State != campaign.JobDone {
		t.Fatalf("SSE snapshots = %+v", snaps)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Done < snaps[i-1].Done {
			t.Fatalf("SSE progress went backwards: %+v", snaps)
		}
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !bytes.Equal(res, direct) {
		t.Error("server-mediated result diverged from direct execution")
	}
	// Dispatch in server mode returns the same bytes.
	disp, err := campaign.Dispatch(ctx, spec, campaign.DispatchOpts{Server: c.Base})
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if !bytes.Equal(disp, direct) {
		t.Error("Dispatch(server) diverged from direct execution")
	}
}

// TestServerCacheHit: a resubmitted identical job is served from the
// result cache without any shard execution, and its result still matches.
func TestServerCacheHit(t *testing.T) {
	var shardRuns atomic.Int64
	counting := func(ctx context.Context, req campaign.ShardRequest) ([]campaign.TrialRec, error) {
		shardRuns.Add(1)
		return campaign.RunShard(ctx, req)
	}
	_, c, stop := startServer(t, t.TempDir(),
		campaign.Options{Workers: 2, Shards: 2, ShardParallel: 2, RunShard: counting})
	defer stop()
	ctx := context.Background()

	spec := fuzzSpec(10)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil || fin.State != campaign.JobDone {
		t.Fatalf("first job: %+v, %v", fin, err)
	}
	if fin.Cached {
		t.Fatal("first run claims to be cached")
	}
	first, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	ranBefore := shardRuns.Load()
	if ranBefore == 0 {
		t.Fatal("counting executor never ran")
	}

	// Identical spec, different spelling: same key, served from cache at
	// submit time — done immediately, no execution.
	st2, err := c.Submit(ctx, campaign.JobSpec{Kind: campaign.KindFuzz,
		Fuzz: &campaign.FuzzSpec{Seeds: 10, RootSeed: 1, MaxNodes: 8}})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st2.State != campaign.JobDone || !st2.Cached {
		t.Fatalf("resubmitted job = %+v, want done+cached", st2)
	}
	if got := shardRuns.Load(); got != ranBefore {
		t.Fatalf("cache hit re-simulated: %d shard runs before, %d after", ranBefore, got)
	}
	second, err := c.Result(ctx, st2.ID)
	if err != nil {
		t.Fatalf("cached Result: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached result diverged from computed result")
	}
}

// TestServerRestartResumesJob: a server abandoned mid-campaign (the
// kill -9 stand-in: schedulers stop, no terminal record lands) re-queues
// the job on restart and resumes it from its trial journal to the
// identical final verdict.
func TestServerRestartResumesJob(t *testing.T) {
	spec := fuzzSpec(18)
	direct := mustExecute(t, spec, campaign.Env{Workers: 1})
	dir := t.TempDir()

	// Gate the first server: two shards land in the journal, then the
	// third blocks until shutdown — so the server dies mid-campaign with
	// some, but never all, trials journaled.
	progressed := make(chan struct{})
	var shards atomic.Int64
	gated := func(ctx context.Context, req campaign.ShardRequest) ([]campaign.TrialRec, error) {
		if shards.Add(1) == 3 {
			close(progressed)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return campaign.RunShard(ctx, req)
	}
	srv, c, stop := startServer(t, dir,
		campaign.Options{Workers: 1, Shards: 6, ShardParallel: 1, RunShard: gated})
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-progressed:
	case <-time.After(60 * time.Second):
		t.Fatal("job never progressed")
	}
	stop() // abandons the running job without a terminal record
	_ = srv

	// Restart over the same state directory: the job re-queues, resumes
	// from its journal, and finishes.
	_, c2, stop2 := startServer(t, dir, campaign.Options{Workers: 2})
	defer stop2()
	fin, err := c2.Wait(context.Background(), st.ID, nil)
	if err != nil || fin.State != campaign.JobDone {
		t.Fatalf("resumed job: %+v, %v", fin, err)
	}
	if fin.Resumed == 0 {
		t.Error("restarted job replayed no journaled trials")
	}
	res, err := c2.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !bytes.Equal(res, direct) {
		t.Error("post-restart result diverged from direct execution")
	}
}

// TestServerCancel: canceling a running job drives it to the canceled
// terminal state (and a canceled job serves no result).
func TestServerCancel(t *testing.T) {
	blocking := func(ctx context.Context, req campaign.ShardRequest) ([]campaign.TrialRec, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, c, stop := startServer(t, t.TempDir(), campaign.Options{Workers: 1, RunShard: blocking})
	defer stop()
	ctx := context.Background()

	st, err := c.Submit(ctx, fuzzSpec(4))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != campaign.JobCanceled {
		t.Fatalf("state after cancel = %s", fin.State)
	}
	if _, err := c.Result(ctx, st.ID); err == nil {
		t.Fatal("canceled job served a result")
	}
}

// TestServerRejectsOversizeSpec: a POST /v1/jobs body past the server's
// cap is answered 413 without queuing anything.
func TestServerRejectsOversizeSpec(t *testing.T) {
	_, c, stop := startServer(t, t.TempDir(), campaign.Options{Workers: 1})
	defer stop()

	body := `{"kind":"fuzz","pad":"` + strings.Repeat("x", 16<<20) + `"}`
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize spec answered %d, want 413", resp.StatusCode)
	}

	resp, err = http.Get(c.Base + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var jobs []campaign.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatalf("job list: %v", err)
	}
	if len(jobs) != 0 {
		t.Fatalf("oversize spec created %d job(s)", len(jobs))
	}
}
