// Command duid is the lab's campaign service (internal/campaign): a
// persistent server that accepts evaluation campaigns — scenario fuzzing,
// chaos sweeps, scenario batches, attack-frontier searches, robustness
// matrices — over an HTTP JSON API, executes them on bounded worker
// pools, journals completed trials so a campaign survives kill -9, and
// serves repeated submissions from a content-addressed result cache keyed
// by (canonical spec, code revision).
//
// Usage:
//
//	duid [-addr HOST:PORT] [-dir DIR] [-parallel W] [-shards N]
//	     [-shard-procs P] [-jobs J]
//
// State lives under -dir (job-store journal, per-job trial journals,
// result cache); a restarted duid over the same directory re-queues and
// resumes every unfinished campaign. -shards splits each job's seed range
// into contiguous shards; with -shard-procs P the shards run in P worker
// subprocesses (duid re-executes itself with the internal -run-shard
// flag, exchanging JSON on stdin/stdout). In-process shards journal each
// trial as it finishes; a -shard-procs worker's trials are journaled only
// when it returns its whole shard, so a kill -9 loses the finished trials
// of every shard still running. Result bytes are identical at every
// -parallel / -shards / -shard-procs setting.
//
// The API (see internal/campaign.Server.Handler):
//
//	POST /v1/jobs                submit a job spec, e.g.
//	                             {"kind":"fuzz","fuzz":{"seeds":500}}
//	GET  /v1/jobs                list jobs
//	GET  /v1/jobs/{id}[?wait=D]  status (long-poll with ?wait)
//	GET  /v1/jobs/{id}/result    canonical result JSON
//	GET  /v1/jobs/{id}/events    SSE progress stream
//	POST /v1/jobs/{id}/cancel    cancel
//	GET  /v1/version             build identity (= cache-key revision)
//
// The drivers cmd/simfuzz and duireport's chaos-eval, robustness and
// advsearch subcommands submit to a running duid with their -server flag
// and emit the same canonical JSON their -json inline mode produces —
// byte-identical, by construction and by the duid-smoke and
// robustness-smoke CI gates.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"dui/internal/buildinfo"
	"dui/internal/campaign"
	"dui/internal/cli"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address for the HTTP API")
	dir := flag.String("dir", "duid-state", "state directory (job journal, trial journals, result cache)")
	parallel := cli.Parallel("per-shard trial workers (0 = all cores; results identical at any setting)")
	shards := flag.Int("shards", 1, "contiguous seed-range shards per job (results identical at any setting)")
	shardProcs := flag.Int("shard-procs", 0, "run shards in this many worker subprocesses (0 = in-process)")
	jobs := flag.Int("jobs", 1, "concurrently executing jobs")
	runShard := flag.Bool("run-shard", false, "internal: execute one shard request from stdin and exit")
	cli.Parse("duid")

	if *runShard {
		os.Exit(runShardMain())
	}

	opts := campaign.Options{Workers: *parallel, Shards: *shards, Jobs: *jobs}
	if *shardProcs > 0 {
		opts.ShardParallel = *shardProcs
		opts.RunShard = subprocessShard
	}
	srv, err := campaign.NewServer(*dir, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "duid: %v\n", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "duid: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "duid: serving on http://%s (state %s, rev %s)\n",
		ln.Addr(), *dir, buildinfo.Revision())

	// No WriteTimeout: ?wait long-polls and SSE progress streams hold a
	// response open for as long as the job runs.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// Graceful stop: close the campaign layer first — canceling its
		// context aborts in-flight jobs non-terminally (they resume on the
		// next start; kill -9 gets the same guarantee from the journals
		// alone) and unblocks SSE and long-poll handlers, which otherwise
		// keep their connections open and stall Shutdown until the
		// watched job finishes.
		srv.Close()
		httpSrv.Shutdown(context.Background())
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "duid: %v\n", err)
		os.Exit(2)
	}
	// A second Close after the signal path is a no-op; this covers the
	// Shutdown-without-signal path (e.g. tests driving Serve directly).
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "duid: %v\n", err)
		os.Exit(2)
	}
}

// runShardMain is the worker-subprocess entry: one ShardRequest as JSON
// on stdin, the shard's TrialRecs as JSON on stdout.
func runShardMain() int {
	var req campaign.ShardRequest
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		fmt.Fprintf(os.Stderr, "duid: -run-shard: %v\n", err)
		return 2
	}
	recs, err := campaign.RunShard(context.Background(), req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "duid: -run-shard: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(recs); err != nil {
		fmt.Fprintf(os.Stderr, "duid: -run-shard: %v\n", err)
		return 1
	}
	return 0
}

// subprocessShard executes one shard in a fresh duid -run-shard worker
// process. Trial records are pure functions of (spec, trial index), so
// process boundaries cannot perturb results — only how they're computed.
func subprocessShard(ctx context.Context, req campaign.ShardRequest) ([]campaign.TrialRec, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("duid: %w", err)
	}
	in, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("duid: shard [%d,%d): %w", req.Lo, req.Hi, err)
	}
	cmd := exec.CommandContext(ctx, exe, "-run-shard")
	cmd.Stdin = bytes.NewReader(in)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("duid: shard [%d,%d): %w", req.Lo, req.Hi, err)
	}
	var recs []campaign.TrialRec
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		return nil, fmt.Errorf("duid: shard [%d,%d): bad worker output: %w", req.Lo, req.Hi, err)
	}
	return recs, nil
}
