package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dui/internal/buildinfo"
)

// Options tunes a Server. Like Env, nothing here affects result bytes —
// only how campaigns execute.
type Options struct {
	// Workers bounds each job's in-process trial pool (<= 0: all cores).
	Workers int
	// Jobs bounds concurrently executing jobs (<= 0: 1).
	Jobs int
}

// Server is the campaign service: a durable job queue and scheduler over
// Execute, plus the HTTP JSON API cmd/duid serves. State lives under one
// directory — jobs.journal (the Store), journals/ (per-job trial
// journals), cache/ (content-addressed results) — so a new Server over
// the same directory recovers queued and running jobs and resumes them.
type Server struct {
	dir    string
	store  *Store
	cache  *Cache
	opts   Options
	mux    *http.ServeMux
	ctx    context.Context
	cancel context.CancelFunc
	wake   chan struct{}
	wg     sync.WaitGroup
	// shards carries the Env.Shards, ShardParallel and RunShard every
	// job runs with. NewServer leaves it zero: one in-process shard per
	// job. Tests set it to gate or count shard runs.
	shards Env
}

// NewServer opens (or recovers) the campaign state under dir and starts
// Options.Jobs scheduler goroutines. Close stops them.
func NewServer(dir string, opts Options) (*Server, error) {
	return newServer(dir, opts, Env{})
}

// newServer is NewServer with every job run under shards' Shards,
// ShardParallel and RunShard.
func newServer(dir string, opts Options, shards Env) (*Server, error) {
	if err := os.MkdirAll(filepath.Join(dir, "journals"), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	store, err := OpenStore(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		return nil, err
	}
	cache, err := NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		store.Close()
		return nil, err
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	s := &Server{dir: dir, store: store, cache: cache, opts: opts, wake: make(chan struct{}, 1), shards: shards}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.routes()
	for i := 0; i < opts.Jobs; i++ {
		s.wg.Add(1)
		go s.scheduler()
	}
	s.kick() // recovered non-terminal jobs are already queued
	return s, nil
}

// Close stops the schedulers, unblocks every SSE and long-poll handler,
// and closes the store. In-flight jobs are abandoned without a terminal
// record, so the next Server over the same directory re-queues and
// resumes them — the same path a kill -9 takes, minus the torn final
// journal line. Close is idempotent.
func (s *Server) Close() error {
	s.cancel()
	s.wg.Wait()
	return s.store.Close()
}

// Handler returns the HTTP API:
//
//	POST /v1/jobs                submit a JobSpec, returns JobStatus
//	GET  /v1/jobs                list all jobs
//	GET  /v1/jobs/{id}[?wait=D]  status; with wait, long-poll for a change
//	GET  /v1/jobs/{id}/result    canonical result JSON of a done job
//	GET  /v1/jobs/{id}/events    SSE stream of JobStatus snapshots
//	POST /v1/jobs/{id}/cancel    cancel a queued or running job
//	GET  /v1/version             build identity of the serving binary
func (s *Server) Handler() http.Handler {
	return s.mux
}

// kick wakes one idle scheduler (coalescing; never blocks).
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// scheduler drains the queue, then sleeps until kicked.
func (s *Server) scheduler() {
	defer s.wg.Done()
	for {
		for s.ctx.Err() == nil {
			jobCtx, cancel := context.WithCancel(s.ctx)
			st, spec, ok := s.store.Claim(cancel)
			if !ok {
				cancel()
				break
			}
			s.runJob(jobCtx, st, spec)
			cancel()
		}
		select {
		case <-s.ctx.Done():
			return
		case <-s.wake:
		}
	}
}

// runJob executes one claimed job: result cache first, then Execute with
// the job's trial journal, then the terminal transition. A server
// shutdown mid-job deliberately records nothing, leaving the job for the
// next process to resume.
func (s *Server) runJob(ctx context.Context, st JobStatus, spec JobSpec) {
	if _, ok, err := s.cache.Get(st.Key); err == nil && ok {
		s.store.Finish(st.ID, true)
		return
	}
	env := s.shards
	env.Workers = s.opts.Workers
	env.Journal = filepath.Join(s.dir, "journals", st.ID+".journal")
	env.OnProgress = func(p Progress) { s.store.SetProgress(st.ID, p) }
	res, err := Execute(ctx, spec, env)
	switch {
	case err == nil:
		if perr := s.cache.Put(st.Key, res); perr != nil {
			s.store.Fail(st.ID, perr.Error())
			return
		}
		s.store.Finish(st.ID, false)
	case s.ctx.Err() != nil && !s.store.CancelRequested(st.ID):
		// Shutdown: stay non-terminal for the next process.
	case s.store.CancelRequested(st.ID) || errors.Is(err, context.Canceled):
		s.store.MarkCanceled(st.ID)
	default:
		s.store.Fail(st.ID, err.Error())
	}
}

// routes builds the API mux.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
}

// writeJSON encodes v compactly (line-oriented clients parse it with
// nothing fancier than sed).
func writeJSON(w http.ResponseWriter, code int, v any) {
	enc, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(enc, '\n'))
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// maxSpecBytes caps a POST /v1/jobs body. Every spec is a handful of
// parameters: the largest canonical one, a robustness job naming all
// nine systems and four profiles, is under 200 bytes.
const maxSpecBytes = 64 << 10

// handleSubmit accepts a JobSpec, consults the result cache, and either
// records an immediately-done cached job or queues it for the scheduler.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	canon, err := spec.Canon()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	if _, hit, cerr := s.cache.Get(Key(canon)); cerr == nil && hit {
		st, serr := s.store.SubmitCached(canon)
		if serr != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: serr.Error()})
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	st, err := s.store.Submit(canon)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	s.kick()
	writeJSON(w, http.StatusOK, st)
}

// handleList returns every job in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}

// handleStatus returns a job's status. With ?wait=DURATION and a
// non-terminal job it long-polls: the response is delayed until the next
// status change (or the wait expires), so clients track progress without
// tight polling.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.store.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + id})
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" && !st.State.Terminal() {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad wait duration"})
			return
		}
		if d > 5*time.Minute {
			d = 5 * time.Minute
		}
		ch, unsub, _ := s.store.Subscribe(id)
		defer unsub()
		// Re-check after subscribing: the change may have already landed.
		if st, _ = s.store.Get(id); !st.State.Terminal() {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ch:
			case <-t.C:
			case <-r.Context().Done():
			case <-s.ctx.Done():
			}
			st, _ = s.store.Get(id)
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult serves a done job's canonical result bytes from the cache.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.store.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + id})
		return
	}
	if st.State != JobDone {
		msg := fmt.Sprintf("job %s is %s, not done", id, st.State)
		if st.Error != "" {
			msg += ": " + st.Error
		}
		writeJSON(w, http.StatusConflict, apiError{Error: msg})
		return
	}
	data, hit, err := s.cache.Get(st.Key)
	if err != nil || !hit {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "result missing from cache"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleEvents streams JobStatus snapshots as server-sent events: one
// "data:" frame per status change, closing after the terminal snapshot.
// Fed by the store's non-blocking notification hub, which the runner
// progress hooks drive through Execute's OnProgress.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.store.Get(id); !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + id})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	ch, unsub, _ := s.store.Subscribe(id)
	defer unsub()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	send := func(st JobStatus) {
		enc, _ := json.Marshal(st)
		fmt.Fprintf(w, "data: %s\n\n", enc)
		fl.Flush()
	}
	st, _ := s.store.Get(id)
	send(st)
	for !st.State.Terminal() {
		select {
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		case <-ch:
			st, _ = s.store.Get(id)
			send(st)
		}
	}
}

// handleCancel cancels a queued or running job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, found := s.store.RequestCancel(id)
	if !found {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + id})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// VersionInfo is the /v1/version payload.
type VersionInfo struct {
	Module        string `json:"module"`
	ModuleVersion string `json:"module_version"`
	Revision      string `json:"revision"`
	Go            string `json:"go"`
}

// handleVersion reports the serving binary's build identity — the same
// revision that keys the result cache.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	i := buildinfo.Get()
	writeJSON(w, http.StatusOK, VersionInfo{
		Module: i.Module, ModuleVersion: i.ModuleVersion,
		Revision: i.Revision, Go: i.GoVersion,
	})
}
