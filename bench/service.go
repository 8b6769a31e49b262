package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dui/internal/campaign"
)

// serviceSize sizes the service workload's closed loop.
type serviceSize struct {
	seeds     int // fuzz seeds per job
	minCold   int // cold jobs per client, at least; the golden digest covers these
	hits      int // resubmits of the client's finished jobs after each cold job
	traceCold int // cold jobs per client in each loop of the traced run
}

// serviceClients is the closed loop's client count.
const serviceClients = 2

// duid is an in-process campaign server behind a loopback listener, and a
// client of it.
type duid struct {
	srv       *campaign.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *campaign.Client
}

// startDuid opens a campaign server over a fresh state directory with two
// job slots of one trial worker each.
func startDuid(dir string) (*duid, error) {
	srv, err := campaign.NewServer(dir, campaign.Options{Jobs: 2, Workers: 1})
	if err != nil {
		return nil, err
	}
	d := &duid{srv: srv, ts: httptest.NewServer(srv.Handler()), transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	d.client = &campaign.Client{Base: d.ts.URL, HTTP: &http.Client{Transport: d.transport}}
	return d, nil
}

// stop shuts the server down: Close first releases any open event stream.
func (d *duid) stop() error {
	err := d.srv.Close()
	d.ts.Close()
	d.transport.CloseIdleConnections()
	return err
}

// serviceBench is the campaign service under a closed loop of clients.
type serviceBench struct {
	seed uint64
	size serviceSize
	dir  string
	duid *duid
}

func openService(o options, dir string) (instance, error) {
	d, err := startDuid(filepath.Join(dir, "duid"))
	if err != nil {
		return nil, err
	}
	return &serviceBench{seed: o.seed, size: o.size.service, dir: dir, duid: d}, nil
}

func (b *serviceBench) close() error { return b.duid.stop() }

// coldJob is client c's i-th cold job: a fuzz campaign with a root seed
// no other job of the run shares.
func (b *serviceBench) coldJob(c, i int) campaign.JobSpec {
	root := b.seed*1_000_000 + uint64(c)*100_000 + uint64(i) + 1
	return campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &campaign.FuzzSpec{Seeds: b.size.seeds, RootSeed: root}}
}

// jobTimes is what one job's client saw.
type jobTimes struct {
	cold      bool
	total     time.Duration // submit → result bytes in hand
	submit    time.Duration
	result    time.Duration
	queueWait time.Duration // submit reply → first running snapshot (traced cold jobs)
	exec      time.Duration // running → done (traced cold jobs)
}

// loopOut is what a closed loop produced.
type loopOut struct {
	tally
	wall time.Duration
	jobs []jobTimes
	cold [][][]byte // per client, cold results in order
}

// clientOut is what one client of the loop saw.
type clientOut struct {
	tally
	jobs []jobTimes
	cold [][]byte
}

// loop runs the closed loop on d: every client submits a cold job, waits
// for its result, then resubmits hits of its own finished jobs, picked by
// a seeded LCG, each of which the cache must serve with the cold job's
// bytes; and again, until dur has passed and minCold cold jobs are done.
// With a tracer, clients follow jobs through the event stream instead of
// long-polling, and every call is a span.
func (b *serviceBench) loop(d *duid, dur time.Duration, minCold int, tr *tracer) loopOut {
	outs := make([]clientOut, serviceClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			root := 0
			if tr != nil {
				root = tr.begin(0, "client")
				defer tr.end(root)
			}
			var specs []campaign.JobSpec
			lcg := b.seed*serviceClients + uint64(c)
			for i := 0; i < minCold || time.Since(start) < dur; i++ {
				spec := b.coldJob(c, i)
				res, jt, err := b.job(d, spec, false, tr, root)
				out.check(err)
				if err == nil {
					specs, out.cold = append(specs, spec), append(out.cold, res)
					out.jobs = append(out.jobs, jt)
				}
				for h := 0; h < b.size.hits && len(specs) > 0; h++ {
					lcg = lcg*6364136223846793005 + 1442695040888963407
					j := int((lcg >> 33) % uint64(len(specs)))
					res, jt, err := b.job(d, specs[j], true, tr, root)
					if err == nil && !bytes.Equal(res, out.cold[j]) {
						err = fmt.Errorf("cache hit for root seed %d returned other bytes than its cold job", specs[j].Fuzz.RootSeed)
					}
					out.check(err)
					if err == nil {
						out.jobs = append(out.jobs, jt)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	all := loopOut{wall: time.Since(start)}
	for _, o := range outs {
		all.attempted += o.attempted
		all.failed += o.failed
		all.jobs = append(all.jobs, o.jobs...)
		all.cold = append(all.cold, o.cold)
	}
	return all
}

// job submits spec and returns its result bytes. A resubmit (hit) must be
// answered done from the result cache at submit.
func (b *serviceBench) job(d *duid, spec campaign.JobSpec, hit bool, tr *tracer, parent int) ([]byte, jobTimes, error) {
	ctx := context.Background()
	jt := jobTimes{cold: !hit}
	call := func(name string, fn func()) {
		if tr == nil {
			fn()
			return
		}
		tr.timed(parent, name, fn)
	}
	if tr != nil {
		parent = tr.begin(parent, "job")
		defer tr.end(parent)
	}
	start := time.Now()
	var st campaign.JobStatus
	var err error
	call("campaign.submit", func() { st, err = d.client.Submit(ctx, spec) })
	jt.submit = time.Since(start)
	if err != nil {
		return nil, jt, err
	}
	if hit && !(st.State == campaign.JobDone && st.Cached) {
		return nil, jt, fmt.Errorf("resubmitted job %s was %s, not served from the cache", st.ID, st.State)
	}
	if !st.State.Terminal() {
		if tr == nil {
			st, err = d.client.Wait(ctx, st.ID, nil)
		} else {
			replied := time.Now()
			var running time.Time
			call("campaign.stream", func() {
				st, err = d.client.Stream(ctx, st.ID, func(s campaign.JobStatus) {
					if running.IsZero() && s.State != campaign.JobQueued {
						running = time.Now()
					}
				})
			})
			jt.queueWait, jt.exec = running.Sub(replied), time.Since(running)
		}
	}
	if err == nil && st.State != campaign.JobDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if err != nil {
		return nil, jt, err
	}
	resultStart := time.Now()
	var res []byte
	call("campaign.result", func() { res, err = d.client.Result(ctx, st.ID) })
	jt.result = time.Since(resultStart)
	jt.total = time.Since(start)
	return res, jt, err
}

// coldDigest is the digest of every client's first n cold results, in
// root-seed order.
func coldDigest(cold [][][]byte, n int) (string, error) {
	h := sha256.New()
	for c, results := range cold {
		if len(results) < n {
			return "", fmt.Errorf("client %d finished %d cold jobs, want %d", c, len(results), n)
		}
		for _, r := range results[:n] {
			h.Write(r)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// measure runs the closed loop for d. An op is one job; the latency is
// the cold jobs'. Hits, a tenth of a millisecond each, vary with every
// scheduling delay on the box; the traced run reports them.
func (b *serviceBench) measure(d time.Duration) measurement {
	out := b.loop(b.duid, d, b.size.minCold, nil)
	m := measurement{tally: out.tally, ops: float64(len(out.jobs)), wall: out.wall}
	for _, jt := range out.jobs {
		if jt.cold {
			m.lat = append(m.lat, ms(jt.total))
		}
	}
	var err error
	m.digest, err = coldDigest(out.cold, b.size.minCold)
	if err != nil {
		m.check(err)
	}
	return m
}

// trace runs a fixed-size loop untraced on a fresh server, then again
// traced on another, under the CPU profile.
func (b *serviceBench) trace(tr *tracer, profPath string) (map[string]float64, tally, error) {
	var t tally
	run := func(name string, tr *tracer) (loopOut, string, error) {
		d, err := startDuid(filepath.Join(b.dir, name))
		if err != nil {
			return loopOut{}, "", err
		}
		out := b.loop(d, 0, b.size.traceCold, tr)
		dig, derr := coldDigest(out.cold, b.size.traceCold)
		return out, dig, errors.Join(derr, d.stop())
	}
	ref, refDigest, err := run("untraced", nil)
	t.attempted, t.failed = ref.attempted, ref.failed
	if err != nil {
		t.check(err)
		return nil, t, err
	}
	p, err := startProfile(profPath)
	if err != nil {
		return nil, t, err
	}
	traced, tracedDigest, err := run("traced", tr)
	shares, perr := p.stop()
	t.attempted += traced.attempted
	t.failed += traced.failed
	if err == nil && tracedDigest != refDigest {
		err = errors.New("traced service loop: cold results differ from the untraced loop's")
	}
	t.check(err)
	if perr != nil {
		return nil, t, perr
	}

	vals := map[string]float64{}
	for name, share := range shares {
		vals["cpu."+name+".share"] = share
	}
	pct := func(name string, xs []float64, p float64) {
		if v, err := percentile(xs, p); err == nil {
			vals[name] = v
		}
	}
	var coldLat, hitLat []float64
	for _, jt := range ref.jobs {
		if jt.cold {
			coldLat = append(coldLat, ms(jt.total))
		} else {
			hitLat = append(hitLat, ms(jt.total))
		}
	}
	pct("service.cold_p50_ms", coldLat, 0.5)
	pct("service.cold_p90_ms", coldLat, 0.9)
	pct("service.hit_p50_ms", hitLat, 0.5)
	pct("service.hit_p99_ms", hitLat, 0.99)

	var submit, wait, exec, result []float64
	hits := 0
	for _, jt := range traced.jobs {
		submit = append(submit, ms(jt.submit))
		result = append(result, ms(jt.result))
		if jt.cold {
			wait = append(wait, ms(jt.queueWait))
			exec = append(exec, ms(jt.exec))
		} else {
			hits++
		}
	}
	pct("campaign.submit_p50_ms", submit, 0.5)
	pct("campaign.submit_p90_ms", submit, 0.9)
	pct("campaign.queue_wait_p50_ms", wait, 0.5)
	pct("campaign.queue_wait_p90_ms", wait, 0.9)
	pct("campaign.exec_p50_ms", exec, 0.5)
	pct("campaign.result_p50_ms", result, 0.5)
	if n := len(traced.jobs); n > 0 {
		vals["campaign.hit_share"] = float64(hits) / float64(n)
	}
	vals["trace_overhead_s"] = traced.wall.Seconds() - ref.wall.Seconds()

	sample := ref.cold[0][0]
	vals["campaign.cache_get_us"], vals["campaign.cache_put_us"], err = cacheP50(filepath.Join(b.dir, "cache"), sample, cacheOps)
	if err != nil {
		return nil, t, err
	}
	rec := campaign.TrialRec{Data: []byte(`{"seed":1311768467463790320}`)}
	vals["journal.append_us"], err = appendP50(b.dir, rec, journalAppends)
	return vals, t, err
}

// cacheOps is how many puts and gets the cache timings are medians of.
const cacheOps = 1000

// cacheP50 returns the median microseconds of campaign.Cache.Get and Put
// over n entries of data in a fresh cache under dir.
func cacheP50(dir string, data []byte, n int) (get, put float64, err error) {
	defer os.RemoveAll(dir)
	c, err := campaign.NewCache(dir)
	if err != nil {
		return 0, 0, err
	}
	gets, puts := make([]float64, n), make([]float64, n)
	key := func(i int) string { return fmt.Sprintf("%032x", i) }
	for i := range puts {
		start := time.Now()
		if err := c.Put(key(i), data); err != nil {
			return 0, 0, err
		}
		puts[i] = float64(time.Since(start)) / 1e3
	}
	for i := range gets {
		start := time.Now()
		got, ok, err := c.Get(key(i))
		gets[i] = float64(time.Since(start)) / 1e3
		if err != nil || !ok || !bytes.Equal(got, data) {
			return 0, 0, fmt.Errorf("cache get %s: hit %v, err %v", key(i), ok, err)
		}
	}
	return median(gets), median(puts), nil
}
