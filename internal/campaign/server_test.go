package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dui/internal/buildinfo"
	"dui/internal/campaign"
	"dui/internal/fuzz"
)

// startServer stands up a campaign server over dir and an HTTP front for
// it, returning a client. Close order (HTTP first) is handled by cleanup.
func startServer(t *testing.T, dir string, opts campaign.Options) (*campaign.Client, func()) {
	t.Helper()
	srv, err := campaign.NewServer(dir, opts)
	return serve(t, srv, err)
}

// serve fronts srv, the result of a server constructor that returned err,
// with an HTTP server and returns a client for it and a stop function.
func serve(t *testing.T, srv *campaign.Server, err error) (*campaign.Client, func()) {
	t.Helper()
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	stop := func() {
		ts.Close()
		srv.Close()
	}
	return campaign.NewClient(ts.URL), stop
}

// TestServerEndToEnd: submit a fuzz job over the API, stream its progress
// via SSE, and verify the served result is byte-identical to direct
// inline execution — the server-vs-direct determinism gate.
func TestServerEndToEnd(t *testing.T) {
	spec := fuzzSpec(12)
	direct := mustExecute(t, spec, campaign.Env{Workers: 1})

	c, stop := startServer(t, t.TempDir(), campaign.Options{Workers: 2})
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
	disp, err := campaign.Dispatch(ctx, spec, c.Base, campaign.Env{})
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if !bytes.Equal(disp, direct) {
		t.Error("Dispatch(server) diverged from direct execution")
	}
	// A server-run job takes no process-local journal or budget.
	for _, env := range []campaign.Env{{Journal: "j.journal"}, {Budget: time.Second}} {
		if _, err := campaign.Dispatch(ctx, spec, c.Base, env); err == nil {
			t.Errorf("Dispatch(server, %+v) accepted a journal or budget", env)
		}
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
	srv, err := campaign.NewShardedServer(t.TempDir(), campaign.Options{Workers: 2}, 2, 2, counting)
	c, stop := serve(t, srv, err)
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
	srv, err := campaign.NewShardedServer(dir, campaign.Options{Workers: 1}, 6, 1, gated)
	c, stop := serve(t, srv, err)
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

	// Restart over the same state directory: the job re-queues, resumes
	// from its journal, and finishes.
	c2, stop2 := startServer(t, dir, campaign.Options{Workers: 2})
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
	srv, err := campaign.NewShardedServer(t.TempDir(), campaign.Options{Workers: 1}, 1, 1, blocking)
	c, stop := serve(t, srv, err)
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
// 64 KiB cap, by one byte or by megabytes, is answered 413 without
// queuing anything.
func TestServerRejectsOversizeSpec(t *testing.T) {
	c, stop := startServer(t, t.TempDir(), campaign.Options{Workers: 1})
	defer stop()

	const head, tail = `{"kind":"fuzz","pad":"`, `"}`
	for _, size := range []int{64<<10 + 1, 16 << 20} {
		body := head + strings.Repeat("x", size-len(head)-len(tail)) + tail
		resp, err := http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte spec answered %d, want 413", size, resp.StatusCode)
		}
		assertNoJobs(t, c.Base)
	}
}

// TestServerRejectsOverCapSpec: a small body asking for more trials
// than campaign.MaxTrials is answered 400 and never journaled as queued,
// so a restart cannot re-queue it either.
func TestServerRejectsOverCapSpec(t *testing.T) {
	c, stop := startServer(t, t.TempDir(), campaign.Options{Workers: 1})
	defer stop()

	resp, err := http.Post(c.Base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fuzz","fuzz":{"seeds":1000000000}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap spec answered %d, want 400", resp.StatusCode)
	}
	assertNoJobs(t, c.Base)
}

// TestServerRecoversRejectedSubmit: a store journal whose submit records
// this build's Canon rejects (an over-cap fuzz job journaled before the
// trial cap existed, a job of the retired scenarios kind) must not keep
// the server from starting. Each such record is listed as failed and
// never runs, the valid job journaled between them still runs, and the
// next submission reuses no ID.
func TestServerRecoversRejectedSubmit(t *testing.T) {
	spec := fuzzSpec(4)
	direct := mustExecute(t, spec, campaign.Env{Workers: 1})
	canon, err := spec.Canon()
	if err != nil {
		t.Fatal(err)
	}
	canonJSON, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	// A scenario the retired kind's Canon accepted, so an older build
	// would run the record.
	scn, err := json.Marshal(fuzz.Generate(11, fuzz.GenConfig{MaxNodes: 6}))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	journal := `{"magic":"dui-campaign-store","version":1}
{"op":"submit","id":"j000001","key":"0123456789abcdef0123456789abcdef","spec":{"kind":"fuzz","fuzz":{"seeds":1000000000,"root_seed":1}}}
{"op":"submit","id":"j000002","key":"` + campaign.Key(canon) + `","spec":` + string(canonJSON) + `}
{"op":"submit","id":"j000003","key":"fedcba9876543210fedcba9876543210","spec":{"kind":"scenarios","scenarios":{"scenarios":[` + string(scn) + `]}}}
`
	if err := os.WriteFile(filepath.Join(dir, "jobs.journal"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	c, stop := startServer(t, dir, campaign.Options{Workers: 1})
	defer stop()
	ctx := context.Background()
	rejected, err := c.Poll(ctx, "j000001", 0)
	if err != nil || rejected.State != campaign.JobFailed || !strings.Contains(rejected.Error, "trial cap") {
		t.Fatalf("rejected record = %+v, %v; want failed naming the trial cap", rejected, err)
	}
	fin, err := c.Wait(ctx, "j000002", nil)
	if err != nil || fin.State != campaign.JobDone {
		t.Fatalf("valid record = %+v, %v; want done", fin, err)
	}
	if res, err := c.Result(ctx, "j000002"); err != nil || !bytes.Equal(res, direct) {
		t.Fatalf("valid record's result diverged from direct execution (err %v)", err)
	}
	retired, err := c.Poll(ctx, "j000003", 0)
	if err != nil || retired.State != campaign.JobFailed ||
		!strings.Contains(retired.Error, "rejected on recovery") || !strings.Contains(retired.Error, `unknown job kind "scenarios"`) {
		t.Fatalf("retired-kind record = %+v, %v; want failed on recovery naming the unknown kind", retired, err)
	}
	for _, id := range []string{"j000001", "j000003"} {
		if got, _ := c.Poll(ctx, id, 0); got.State != campaign.JobFailed || got.Done != 0 {
			t.Fatalf("rejected record ran: %+v", got)
		}
	}
	next, err := c.Submit(ctx, fuzzSpec(5))
	if err != nil || next.ID != "j000004" {
		t.Fatalf("next submission = %+v, %v; want id j000004", next, err)
	}
}

// assertNoJobs fails t unless the server at base lists no jobs.
func assertNoJobs(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var jobs []campaign.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatalf("job list: %v", err)
	}
	if len(jobs) != 0 {
		t.Fatalf("rejected spec created %d job(s)", len(jobs))
	}
}
