package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"dui/internal/journal"
)

// JobState is a job's lifecycle position.
type JobState string

// The job lifecycle: queued → running → one of the terminal states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether a job in this state will never run again.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobStatus is the wire-visible snapshot of one job — what the HTTP API
// returns and what progress subscribers observe.
type JobStatus struct {
	// ID is the store-assigned job identifier ("j000001", ...).
	ID string `json:"id"`
	// Key is the content address of the job's result (see Key).
	Key string `json:"key"`
	// Kind is the canonical spec's kind.
	Kind string `json:"kind"`
	// State is the lifecycle position.
	State JobState `json:"state"`
	// Done, Total, and Resumed mirror Progress for the running campaign.
	Done    int `json:"done"`
	Total   int `json:"total"`
	Resumed int `json:"resumed"`
	// Cached marks a job whose verdict was served from the result cache
	// without re-simulation.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
}

// Store journal identity.
const (
	storeMagic   = "dui-campaign-store"
	storeVersion = 1
)

// storeHeader is the job-store journal's first line.
type storeHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
}

// storeRec is one job-store journal record: a submission (op "submit",
// carrying the canonical spec) or a terminal transition (op "state").
// Running is deliberately not journaled: any job without a terminal
// record re-queues on recovery and resumes from its own trial journal,
// which is exactly the kill -9 semantics we want.
type storeRec struct {
	Op     string   `json:"op"`
	ID     string   `json:"id"`
	Key    string   `json:"key,omitempty"`
	Spec   *JobSpec `json:"spec,omitempty"`
	State  JobState `json:"state,omitempty"`
	Cached bool     `json:"cached,omitempty"`
	Error  string   `json:"error,omitempty"`
}

// job is the in-memory record behind a JobStatus.
type job struct {
	status JobStatus
	spec   JobSpec // canonical
	subs   map[chan struct{}]struct{}
	cancel context.CancelFunc
	// cancelRequested distinguishes an API cancel (terminal) from a server
	// shutdown (job stays non-terminal and re-queues on restart).
	cancelRequested bool
}

// Store is the durable job index: an internal/journal JSONL file of
// submissions and terminal transitions plus an in-memory index and
// change-notification hub. Recovery re-queues every non-terminal job in
// submission order, so a kill -9'd server picks its campaigns back up.
type Store struct {
	mu    sync.Mutex
	j     *journal.F
	jobs  map[string]*job
	order []string
	seq   int
}

// OpenStore opens (or recovers) the job store journaled at path.
func OpenStore(path string) (*Store, error) {
	hdr := storeHeader{Magic: storeMagic, Version: storeVersion}
	check := func(raw []byte) error {
		var got storeHeader
		if err := json.Unmarshal(raw, &got); err != nil || got.Magic != storeMagic {
			return fmt.Errorf("campaign: %s: not a job store", path)
		}
		if got.Version != storeVersion {
			return fmt.Errorf("campaign: %s: store version %d (want %d)", path, got.Version, storeVersion)
		}
		return nil
	}
	jf, recs, err := journal.Open(path, hdr, check)
	if err != nil {
		return nil, err
	}
	st := &Store{j: jf, jobs: map[string]*job{}}
	for i, raw := range recs {
		var rec storeRec
		if err := json.Unmarshal(raw, &rec); err != nil {
			jf.Close()
			return nil, fmt.Errorf("campaign: %s: corrupt record %d: %v", path, i+1, err)
		}
		switch rec.Op {
		case "submit":
			if rec.Spec == nil {
				jf.Close()
				return nil, fmt.Errorf("campaign: %s: submit record %d carries no spec", path, i+1)
			}
			// A spec an older, looser build accepted but this one
			// rejects is indexed failed, so it never runs yet still
			// counts toward seq and its ID is never reused.
			canon, err := rec.Spec.Canon()
			if err != nil {
				canon = *rec.Spec
				err = fmt.Errorf("rejected on recovery: %v", err)
			}
			st.indexLocked(rec.ID, canon, rec.Key, err)
		case "state":
			jb, ok := st.jobs[rec.ID]
			if !ok {
				jf.Close()
				return nil, fmt.Errorf("campaign: %s: state record %d names unknown job %s", path, i+1, rec.ID)
			}
			jb.status.State = rec.State
			jb.status.Cached = rec.Cached
			jb.status.Error = rec.Error
			if rec.State == JobDone {
				jb.status.Done = jb.status.Total
			}
		default:
			jf.Close()
			return nil, fmt.Errorf("campaign: %s: record %d has unknown op %q", path, i+1, rec.Op)
		}
	}
	return st, nil
}

// indexLocked adds a job to the in-memory index: queued, or failed with
// the rejection's message when rejected is non-nil (spec is then not
// canonical and never runs). Callers hold mu (or, during recovery, have
// exclusive access).
func (st *Store) indexLocked(id string, spec JobSpec, key string, rejected error) *job {
	jb := &job{
		status: JobStatus{ID: id, Key: key, Kind: spec.Kind, State: JobQueued},
		spec:   spec,
		subs:   map[chan struct{}]struct{}{},
	}
	if rejected != nil {
		jb.status.State, jb.status.Error = JobFailed, rejected.Error()
	} else {
		jb.status.Total = kindOps(spec.Kind).total(spec)
	}
	st.jobs[id] = jb
	st.order = append(st.order, id)
	st.seq++
	return jb
}

// Submit canonicalizes spec, journals the submission, and queues the job.
func (st *Store) Submit(spec JobSpec) (JobStatus, error) {
	return st.submit(spec, false)
}

// SubmitCached is Submit for a job whose result is already cached: the
// submission and the terminal done-from-cache transition are journaled
// and indexed atomically, so a scheduler can never claim the job in
// between.
func (st *Store) SubmitCached(spec JobSpec) (JobStatus, error) {
	return st.submit(spec, true)
}

// submit is the shared submission body.
func (st *Store) submit(spec JobSpec, cached bool) (JobStatus, error) {
	canon, err := spec.Canon()
	if err != nil {
		return JobStatus{}, err
	}
	key := Key(canon)
	st.mu.Lock()
	defer st.mu.Unlock()
	id := fmt.Sprintf("j%06d", st.seq+1)
	if err := st.j.Append(storeRec{Op: "submit", ID: id, Key: key, Spec: &canon}); err != nil {
		return JobStatus{}, err
	}
	jb := st.indexLocked(id, canon, key, nil)
	if cached {
		st.j.Append(storeRec{Op: "state", ID: id, State: JobDone, Cached: true})
		jb.status.State = JobDone
		jb.status.Cached = true
		jb.status.Done = jb.status.Total
	}
	st.notifyLocked(jb)
	return jb.status, nil
}

// Claim hands the scheduler the oldest claimable queued job, marking it
// running and attaching the cancel handle an API cancel will fire. A
// queued job whose key another scheduler is already running is not
// claimable: it coalesces in flight — when the running twin finishes,
// terminalLocked marks it done from the cache; when the twin fails or is
// canceled, it stays queued and the winding-down scheduler's claim loop
// picks it up. ok=false when nothing is claimable.
func (st *Store) Claim(cancel context.CancelFunc) (JobStatus, JobSpec, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	inflight := map[string]bool{}
	for _, id := range st.order {
		if jb := st.jobs[id]; jb.status.State == JobRunning {
			inflight[jb.status.Key] = true
		}
	}
	for _, id := range st.order {
		jb := st.jobs[id]
		if jb.status.State != JobQueued || inflight[jb.status.Key] {
			continue
		}
		jb.status.State = JobRunning
		jb.cancel = cancel
		st.notifyLocked(jb)
		return jb.status, jb.spec, true
	}
	return JobStatus{}, JobSpec{}, false
}

// SetProgress updates a running job's trial counters.
func (st *Store) SetProgress(id string, p Progress) {
	st.mu.Lock()
	defer st.mu.Unlock()
	jb, ok := st.jobs[id]
	if !ok || jb.status.State.Terminal() {
		return
	}
	jb.status.Done, jb.status.Total, jb.status.Resumed = p.Done, p.Total, p.Resumed
	st.notifyLocked(jb)
}

// Finish journals and applies the done transition. Journal append errors
// are swallowed (the in-memory state is authoritative for this process;
// the worst case is a finished job re-running after a restart).
func (st *Store) Finish(id string, cached bool) {
	st.terminal(id, JobDone, cached, "")
}

// Fail journals and applies the failed transition.
func (st *Store) Fail(id, msg string) {
	st.terminal(id, JobFailed, false, msg)
}

// MarkCanceled journals and applies the canceled transition.
func (st *Store) MarkCanceled(id string) {
	st.terminal(id, JobCanceled, false, "")
}

// terminal is the shared terminal-transition body.
func (st *Store) terminal(id string, state JobState, cached bool, msg string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if jb, ok := st.jobs[id]; ok {
		st.terminalLocked(jb, state, cached, msg)
	}
}

// terminalLocked journals and applies a terminal transition. A done
// transition also settles every queued duplicate of the same key: the
// finished job just populated the result cache, so the duplicates go
// done-from-cache without re-simulation. Failed and canceled transitions
// leave duplicates queued — the work still needs doing, and the next
// claim retries it. Callers hold mu.
func (st *Store) terminalLocked(jb *job, state JobState, cached bool, msg string) {
	if jb.status.State.Terminal() {
		return
	}
	st.applyTerminalLocked(jb, state, cached, msg)
	if state != JobDone {
		return
	}
	for _, id := range st.order {
		if dup := st.jobs[id]; dup.status.State == JobQueued && dup.status.Key == jb.status.Key {
			st.applyTerminalLocked(dup, JobDone, true, "")
		}
	}
}

// applyTerminalLocked journals and applies one terminal transition
// without coalescing. Callers hold mu.
func (st *Store) applyTerminalLocked(jb *job, state JobState, cached bool, msg string) {
	st.j.Append(storeRec{Op: "state", ID: jb.status.ID, State: state, Cached: cached, Error: msg})
	jb.status.State = state
	jb.status.Cached = cached
	jb.status.Error = msg
	if state == JobDone {
		jb.status.Done = jb.status.Total
	}
	jb.cancel = nil
	st.notifyLocked(jb)
}

// RequestCancel cancels a job: a queued job goes terminal immediately; a
// running job has its context canceled and goes terminal when the
// executor unwinds. found=false for unknown ids.
func (st *Store) RequestCancel(id string) (JobStatus, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	jb, ok := st.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	jb.cancelRequested = true
	// The whole transition happens under mu so a concurrent Claim cannot
	// slip between the state read and the action — a queued job goes
	// terminal here; a claimed one has its stored cancel func fired and
	// goes terminal when the executor unwinds.
	if jb.status.State == JobQueued {
		st.terminalLocked(jb, JobCanceled, false, "")
	} else if jb.cancel != nil {
		jb.cancel()
	}
	return jb.status, true
}

// CancelRequested reports whether an API cancel was requested for id —
// how the scheduler tells a canceled job from a server shutdown.
func (st *Store) CancelRequested(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	jb, ok := st.jobs[id]
	return ok && jb.cancelRequested
}

// Get returns a job's current status.
func (st *Store) Get(id string) (JobStatus, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	jb, ok := st.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return jb.status, true
}

// List returns every job's status in submission order.
func (st *Store) List() []JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]JobStatus, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.jobs[id].status)
	}
	return out
}

// Subscribe registers a change-notification channel for id: it receives a
// (coalesced) signal after every status change — the subscriber re-reads
// the latest snapshot via Get. The returned closer unregisters. Sends
// never block, so slow subscribers cannot stall the executor.
func (st *Store) Subscribe(id string) (ch <-chan struct{}, close func(), ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	jb, found := st.jobs[id]
	if !found {
		return nil, nil, false
	}
	c := make(chan struct{}, 1)
	jb.subs[c] = struct{}{}
	return c, func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		delete(jb.subs, c)
	}, true
}

// notifyLocked signals every subscriber without blocking: the channel is
// a one-slot latch, so a burst of updates coalesces into one wakeup.
func (st *Store) notifyLocked(jb *job) {
	for c := range jb.subs {
		select {
		case c <- struct{}{}:
		default:
		}
	}
}

// Close closes the store journal; further submissions and transitions
// fail loudly at the journal layer.
func (st *Store) Close() error {
	return st.j.Close()
}
