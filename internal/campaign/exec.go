package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"dui/internal/journal"
	"dui/internal/runner"
)

// Progress is a campaign-level progress snapshot, delivered after every
// completed (or journal-replayed) trial.
type Progress struct {
	// Done counts trials with a recorded verdict; Total is the job size.
	Done, Total int
	// Resumed counts trials whose verdicts were replayed from the journal
	// rather than re-run — nonzero exactly when a killed campaign resumed.
	Resumed int
}

// TrialRec is one trial's journaled verdict: the trial index plus the
// kind-specific record. Trial outcomes are pure functions of (spec,
// trial index), which is what makes records portable across shard
// splits, worker counts, shard executors, and restarts.
type TrialRec struct {
	Trial int             `json:"trial"`
	Data  json.RawMessage `json:"data"`
}

// ShardRequest is the unit handed to a shard executor: run trials
// [Lo, Hi) of Spec on Workers in-process workers. Done carries verdicts
// already recovered from the job journal so a resumed shard replays
// instead of re-running them.
type ShardRequest struct {
	Spec    JobSpec
	Lo, Hi  int
	Workers int
	Done    []TrialRec
}

// ShardFn executes one shard and returns every trial record in [Lo, Hi)
// — replayed and fresh alike. nil means in-process execution; the
// benchmark's traced run substitutes an executor that computes and times
// each trial itself.
type ShardFn func(ctx context.Context, req ShardRequest) ([]TrialRec, error)

// Env tunes one Execute call. The result bytes are independent of every
// field here but Budget — Workers, Shards, ShardParallel, RunShard, and
// Journal only change how (and how durably) the campaign runs, never what
// it returns.
type Env struct {
	// Workers bounds each shard's in-process trial pool (<= 0: all cores).
	Workers int
	// Shards splits the job's trial range into this many contiguous
	// shards (<= 0: 1; capped at the trial count).
	Shards int
	// ShardParallel bounds how many shards run concurrently (<= 0: 1).
	// With in-process shards 1 is the useful value: the trial pool
	// already uses Workers.
	ShardParallel int
	// Journal, when non-empty, records completed trials' verdicts in this
	// internal/journal file, bound to the job Key. In-process shards
	// journal each trial as it finishes; the records of an external
	// RunShard executor are journaled only when it returns its shard, so
	// a kill loses every finished trial of the shards still in flight. A
	// killed campaign resumes from it to the identical final verdict.
	Journal string
	// Budget, when positive, stops starting trials once this much wall
	// time has passed; trials already running finish and are journaled.
	// A budget-stopped fuzz job returns a partial result whose
	// FuzzResult.Skipped counts the unstarted trials (its failures are
	// still shrunk); every other kind returns an error. Partial bytes
	// depend on the wall clock, so the campaign server never sets Budget.
	// External RunShard executors see it as a context deadline.
	Budget time.Duration
	// RunShard executes one shard (nil = in-process).
	RunShard ShardFn
	// OnProgress, if non-nil, observes trial completion. Calls are
	// serialized; the callback must not block (the campaign server feeds
	// SSE subscribers through a non-blocking hub).
	OnProgress func(Progress)
}

// jobJournalHeader binds a job journal to one campaign key.
type jobJournalHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Key     string `json:"key"`
}

// Journal file identity for per-job trial journals.
const (
	jobJournalMagic   = "dui-campaign-job"
	jobJournalVersion = 1
)

// errBudget is the cancel cause of a shard context whose Env.Budget ran
// out, telling a budget stop apart from a cancellation.
var errBudget = errors.New("campaign: budget exhausted")

// budgetSpent reports whether ctx ended because Env.Budget ran out.
func budgetSpent(ctx context.Context) bool {
	return errors.Is(context.Cause(ctx), errBudget)
}

// Execute runs the campaign described by spec and returns its canonical
// result JSON. The bytes are a pure function of the canonical spec:
// byte-identical at any worker count, shard split, shard executor, and
// across journal-driven resumes. See Env for the knobs; only a spent
// Budget can change what a run returns.
func Execute(ctx context.Context, spec JobSpec, env Env) ([]byte, error) {
	canon, err := spec.Canon()
	if err != nil {
		return nil, err
	}
	ops := kindOps(canon.Kind)
	total := ops.total(canon)

	// Recover prior verdicts from the job journal, if any.
	var jf *journal.F
	done := map[int]json.RawMessage{}
	if env.Journal != "" {
		key := Key(canon)
		hdr := jobJournalHeader{Magic: jobJournalMagic, Version: jobJournalVersion, Key: key}
		check := func(raw []byte) error {
			var got jobJournalHeader
			if err := json.Unmarshal(raw, &got); err != nil || got.Magic != jobJournalMagic {
				return fmt.Errorf("campaign: %s: not a job journal", env.Journal)
			}
			if got.Version != jobJournalVersion {
				return fmt.Errorf("campaign: %s: journal version %d (want %d)", env.Journal, got.Version, jobJournalVersion)
			}
			if got.Key != key {
				return fmt.Errorf("campaign: %s was written by a different job (key %s, want %s)", env.Journal, got.Key, key)
			}
			return nil
		}
		var recs [][]byte
		jf, recs, err = journal.Open(env.Journal, hdr, check)
		if err != nil {
			return nil, err
		}
		defer jf.Close()
		for i, raw := range recs {
			var rec TrialRec
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("campaign: %s: corrupt record %d: %v", env.Journal, i+1, err)
			}
			if rec.Trial < 0 || rec.Trial >= total {
				return nil, fmt.Errorf("campaign: %s: trial %d out of range in record %d", env.Journal, rec.Trial, i+1)
			}
			done[rec.Trial] = rec.Data
		}
	}

	// Progress accounting: replayed trials count immediately.
	prog := &progressTracker{total: total, resumed: len(done), onProgress: env.OnProgress}
	prog.done = len(done)
	prog.emit()

	// Split [0, total) into contiguous shards and execute.
	shards := shardRanges(total, env.Shards)
	workers := env.Workers
	shardPar := env.ShardParallel
	if shardPar <= 0 {
		shardPar = 1
	}
	runShard := env.RunShard
	if runShard == nil {
		local := &localExec{journal: jf, prog: prog}
		runShard = local.run
	}
	var deadline time.Time
	if env.Budget > 0 {
		deadline = time.Now().Add(env.Budget)
	}
	perShard, err := runner.Map(ctx, shards, 0, runner.Config{Workers: shardPar},
		func(ctx context.Context, _ runner.Trial, sh [2]int) ([]TrialRec, error) {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !deadline.IsZero() {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadlineCause(ctx, deadline, errBudget)
				defer cancel()
			}
			req := ShardRequest{Spec: canon, Lo: sh[0], Hi: sh[1], Workers: workers}
			for t := sh[0]; t < sh[1]; t++ {
				if data, ok := done[t]; ok {
					req.Done = append(req.Done, TrialRec{Trial: t, Data: data})
				}
			}
			recs, err := runShard(ctx, req)
			if err != nil {
				return nil, err
			}
			if env.RunShard != nil {
				// External executors return in bulk; journal and count
				// their fresh records here.
				for _, rec := range recs {
					if _, replayed := done[rec.Trial]; replayed {
						continue
					}
					if jf != nil {
						jf.Append(rec)
					}
					prog.trialDone()
				}
			}
			return recs, nil
		})
	if err != nil {
		return nil, err
	}

	// Deterministic merge: shard results concatenate in shard order,
	// which is trial order — the same discipline as internal/popscale.
	// A nil record is a trial the budget left unstarted.
	outs := make([][]byte, 0, total)
	skipped := 0
	for _, recs := range perShard {
		for _, rec := range recs {
			if rec.Trial != len(outs) {
				return nil, fmt.Errorf("campaign: shard merge out of order: got trial %d at position %d", rec.Trial, len(outs))
			}
			if rec.Data == nil {
				skipped++
			}
			outs = append(outs, rec.Data)
		}
	}
	if skipped > 0 && !ops.partial {
		return nil, fmt.Errorf("%w: %d of %d %s trials never started", errBudget, skipped, total, canon.Kind)
	}

	result, err := ops.assemble(ctx, canon, outs)
	if err != nil {
		return nil, err
	}
	enc, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// shardRanges cuts [0, n) into k contiguous ranges whose sizes differ by
// at most one (the leading ranges take the remainder).
func shardRanges(n, k int) [][2]int {
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, 0, k)
	base, rem := n/k, n%k
	lo := 0
	for s := 0; s < k; s++ {
		size := base
		if s < rem {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}

// localExec is the in-process shard executor: per-trial journaling and
// progress as each trial completes.
type localExec struct {
	journal *journal.F
	prog    *progressTracker
}

// run executes one shard in-process.
func (l *localExec) run(ctx context.Context, req ShardRequest) ([]TrialRec, error) {
	return runShardWith(ctx, req, func(rec TrialRec) {
		if l.journal != nil {
			l.journal.Append(rec)
		}
		l.prog.trialDone()
	})
}

// runShardWith is the shared shard body: replay what Done covers, run
// the rest on an internal/runner pool with per-trial seeds from the
// GLOBAL seed expansion (so shard boundaries never shift a trial's
// seed), and return records in trial order. Once Env.Budget has run out
// no trial starts: each unstarted trial comes back with nil Data.
func runShardWith(ctx context.Context, req ShardRequest, onFresh func(TrialRec)) ([]TrialRec, error) {
	canon, err := req.Spec.Canon()
	if err != nil {
		return nil, err
	}
	ops := kindOps(canon.Kind)
	total := ops.total(canon)
	if req.Lo < 0 || req.Hi > total || req.Lo > req.Hi {
		return nil, fmt.Errorf("campaign: shard [%d,%d) out of range for %d trials", req.Lo, req.Hi, total)
	}
	seeds := runner.Seeds(rootSeed(canon), total)
	done := map[int]json.RawMessage{}
	for _, rec := range req.Done {
		done[rec.Trial] = rec.Data
	}

	n := req.Hi - req.Lo
	datas, err := runner.Run(ctx, n, 0, runner.Config{Workers: req.Workers},
		func(ctx context.Context, t runner.Trial) (json.RawMessage, error) {
			trial := req.Lo + t.Index
			if data, ok := done[trial]; ok {
				return data, nil
			}
			// A cancel can land between dispatch and here; bail before
			// paying for a simulation.
			if err := ctx.Err(); err != nil {
				if budgetSpent(ctx) {
					return nil, nil
				}
				return nil, err
			}
			data, err := ops.runOne(canon, req.Workers, trial, seeds[trial])
			if err != nil {
				return nil, err
			}
			if onFresh != nil {
				onFresh(TrialRec{Trial: trial, Data: data})
			}
			return data, nil
		})
	if err != nil && !(errors.Is(err, context.DeadlineExceeded) && budgetSpent(ctx)) {
		return nil, err
	}
	recs := make([]TrialRec, n)
	for i, data := range datas {
		if data == nil {
			// The budget can stop dispatch before a replayed trial's turn.
			data = done[req.Lo+i]
		}
		recs[i] = TrialRec{Trial: req.Lo + i, Data: data}
	}
	return recs, nil
}

// progressTracker serializes campaign-level progress.
type progressTracker struct {
	mu         sync.Mutex
	done       int
	total      int
	resumed    int
	onProgress func(Progress)
}

// trialDone counts one fresh trial and emits a snapshot.
func (p *progressTracker) trialDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.emitLocked()
}

// emit emits the current snapshot (initial call, before workers start).
func (p *progressTracker) emit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emitLocked()
}

// emitLocked delivers the snapshot; callers hold the lock.
func (p *progressTracker) emitLocked() {
	if p.onProgress != nil {
		p.onProgress(Progress{Done: p.done, Total: p.total, Resumed: p.resumed})
	}
}
