// Command duid is the lab's campaign service (internal/campaign): a
// persistent server that accepts evaluation campaigns — scenario fuzzing,
// chaos sweeps, attack-frontier searches, robustness matrices — over an
// HTTP JSON API, executes them on bounded worker pools, journals
// completed trials so a campaign survives kill -9, and serves repeated
// submissions from a content-addressed result cache keyed by (canonical
// spec, code revision).
//
// Usage:
//
//	duid [-addr HOST:PORT] [-dir DIR] [-parallel W] [-jobs J]
//
// State lives under -dir (job-store journal, per-job trial journals,
// result cache); a restarted duid over the same directory re-queues and
// resumes every unfinished campaign from the trials it journaled, each
// as it finished. Result bytes are identical at every -parallel and
// -jobs setting.
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
// duireport's campaign subcommands (simfuzz, chaos-eval, robustness and
// advsearch) submit to a running duid with their -server flag and emit
// the same canonical JSON their -json inline mode produces —
// byte-identical, by construction and by the duid-smoke and
// robustness-smoke CI gates.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
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
	parallel := cli.Parallel("per-job trial workers (0 = all cores; results identical at any setting)")
	jobs := flag.Int("jobs", 1, "concurrently executing jobs")
	cli.Parse("duid")

	srv, err := campaign.NewServer(*dir, campaign.Options{Workers: *parallel, Jobs: *jobs})
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
