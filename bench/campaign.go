package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dui/internal/audit"
	"dui/internal/campaign"
	"dui/internal/fuzz"
	"dui/internal/journal"
	"dui/internal/robustness"
	"dui/internal/runner"
	"dui/internal/scenario"
)

// trialWorkers is the trial pool of every timed campaign: one worker per
// vCPU of the 2-vCPU box the benchmark was sized on.
const trialWorkers = 2

// campaignBench runs one campaign.Execute per request: the robustness
// matrix or a fault-mode fuzz campaign, with the trial journal on.
type campaignBench struct {
	spec   campaign.JobSpec // canonical
	trials int
	dir    string
	jobs   int // journal files created so far
}

// execute runs spec under env with a fresh trial journal.
func (b *campaignBench) execute(spec campaign.JobSpec, env campaign.Env) ([]byte, error) {
	b.jobs++
	env.Journal = filepath.Join(b.dir, fmt.Sprintf("job-%d.journal", b.jobs))
	defer os.Remove(env.Journal)
	return campaign.Execute(context.Background(), spec, env)
}

// measure repeats the timed campaign.
func (b *campaignBench) measure(d time.Duration, verify func([]byte) error) measurement {
	return repeat(d, float64(b.trials), func() ([]byte, error) {
		out, err := b.execute(b.spec, campaign.Env{Workers: trialWorkers})
		if err == nil {
			err = verify(out)
		}
		return out, err
	})
}

// references runs the two untraced campaigns a traced run is judged
// against: the timed configuration, whose wall time the runner's parallel
// efficiency divides by, and the same campaign on one worker, whose wall
// time the tracing overhead is measured from.
func (b *campaignBench) references(t *tally) (ref []byte, wall2, wall1 float64, err error) {
	start := time.Now()
	ref, err = b.execute(b.spec, campaign.Env{Workers: trialWorkers})
	wall2 = time.Since(start).Seconds()
	t.check(err)
	if err != nil {
		return nil, 0, 0, err
	}
	start = time.Now()
	one, err := b.execute(b.spec, campaign.Env{Workers: 1})
	wall1 = time.Since(start).Seconds()
	t.check(sameBytes("one-worker campaign", one, ref, err))
	return ref, wall2, wall1, nil
}

// tracedExecute runs spec through campaign.Execute with every trial in a
// shard of its own, executed in order by trial, which the benchmark
// computes itself through the layers' public calls.
func (b *campaignBench) tracedExecute(tr *tracer, parent int, spec campaign.JobSpec,
	trial func(exec, i int) (campaign.TrialRec, error)) ([]byte, error) {
	exec := tr.begin(parent, "campaign.Execute")
	defer tr.end(exec)
	return b.execute(spec, campaign.Env{
		Shards: b.trials, ShardParallel: 1,
		RunShard: func(_ context.Context, req campaign.ShardRequest) ([]campaign.TrialRec, error) {
			var recs []campaign.TrialRec
			for i := req.Lo; i < req.Hi; i++ {
				rec, err := trial(exec, i)
				if err != nil {
					return nil, err
				}
				recs = append(recs, rec)
			}
			return recs, nil
		},
	})
}

// sameBytes reports a mismatch between a redone output and its reference.
func sameBytes(what string, got, want []byte, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", what, err)
	case !bytes.Equal(got, want):
		return fmt.Errorf("%s: output differs from the untraced run's", what)
	}
	return nil
}

// repeat runs request back to back for about d: it starts another
// request while the mean request so far would still end within d, and
// always runs one. Every request must return the same bytes: outputs
// are deterministic.
func repeat(d time.Duration, units float64, request func() ([]byte, error)) measurement {
	var m measurement
	start := time.Now()
	for m.attempted == 0 || time.Since(start)*time.Duration(m.attempted+1)/time.Duration(m.attempted) <= d {
		t0 := time.Now()
		out, err := request()
		lat := time.Since(t0)
		if err == nil {
			if dig := digest(out); m.digest == "" {
				m.digest = dig
			} else if dig != m.digest {
				err = fmt.Errorf("request %d: output digest %s differs from the first request's %s", m.attempted+1, dig, m.digest)
			}
		}
		m.check(err)
		if err == nil {
			m.ops += units
			m.lat = append(m.lat, ms(lat))
		}
	}
	m.wall = time.Since(start)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// appendP50 returns the median time in microseconds of journal.F.Append
// over n appends of rec to a fresh journal in dir.
func appendP50(dir string, rec any, n int) (float64, error) {
	path := filepath.Join(dir, "append.journal")
	defer os.Remove(path)
	j, _, err := journal.Open(path, map[string]string{"magic": "bench-append"}, nil)
	if err != nil {
		return 0, err
	}
	defer j.Close()
	lat := make([]float64, n)
	for i := range lat {
		start := time.Now()
		if err := j.Append(rec); err != nil {
			return 0, err
		}
		lat[i] = float64(time.Since(start)) / 1e3
	}
	return median(lat), nil
}

// journalAppends is how many appends journal.append_us is the median of.
const journalAppends = 10000

// ---------------------------------------------------------------- matrix

// matrixBench is the robustness matrix: every (system, attack, guard arm,
// fault profile) cell, Trials twin-run trials each.
type matrixBench struct {
	campaignBench
	cells    []robustness.CellID
	profiles []robustness.Profile
}

func openMatrix(o options, dir string) (instance, error) {
	rs := o.size.matrix
	rs.Systems = append([]string(nil), rs.Systems...) // Canon reuses the slices
	rs.Profiles = append([]string(nil), rs.Profiles...)
	rs.RootSeed = o.seed
	spec, err := campaign.JobSpec{Kind: campaign.KindRobustness, Robustness: &rs}.Canon()
	if err != nil {
		return nil, err
	}
	systems, err := robustness.Select(spec.Robustness.Systems)
	if err != nil {
		return nil, err
	}
	profiles, err := robustness.Profiles(spec.Robustness.Profiles)
	if err != nil {
		return nil, err
	}
	cells := robustness.EnumerateCells(systems, profiles)
	return &matrixBench{
		campaignBench: campaignBench{spec: spec, trials: len(cells) * spec.Robustness.Trials, dir: dir},
		cells:         cells,
		profiles:      profiles,
	}, nil
}

func (b *matrixBench) close() error { return nil }

func (b *matrixBench) measure(d time.Duration) measurement {
	return b.campaignBench.measure(d, b.verify)
}

// verify checks the shape of a matrix result: every cell, every trial.
func (b *matrixBench) verify(out []byte) error {
	var res campaign.RobustnessResult
	if err := json.Unmarshal(out, &res); err != nil {
		return fmt.Errorf("matrix result: %w", err)
	}
	if len(res.Cells) != len(b.cells) {
		return fmt.Errorf("matrix result has %d cells, want %d", len(res.Cells), len(b.cells))
	}
	for _, c := range res.Cells {
		if c.Trials != b.spec.Robustness.Trials {
			return fmt.Errorf("matrix cell %s/%s scored %d trials, want %d", c.System, c.Attack, c.Trials, b.spec.Robustness.Trials)
		}
	}
	return nil
}

func (b *matrixBench) trace(tr *tracer, profPath string) (map[string]float64, tally, error) {
	var t tally
	ref, wall2, wall1, err := b.references(&t)
	if err != nil {
		return nil, t, err
	}
	p, err := startProfile(profPath)
	if err != nil {
		return nil, t, err
	}
	checks := 0
	var first campaign.TrialRec
	root := tr.begin(0, "matrix")
	got, err := b.tracedExecute(tr, root, b.spec, func(exec, i int) (campaign.TrialRec, error) {
		out := b.tracedTrial(tr, exec, i)
		checks += out.Checks + out.TwinChecks
		data, err := json.Marshal(out)
		rec := campaign.TrialRec{Trial: i, Data: data}
		if i == 0 {
			first = rec
		}
		return rec, err
	})
	tr.end(root)
	shares, perr := p.stop()
	t.check(sameBytes("traced matrix", got, ref, err))
	if perr != nil {
		return nil, t, perr
	}

	vals := map[string]float64{}
	for name, share := range shares {
		vals["cpu."+name+".share"] = share
	}
	trialSum := 0.0
	for _, sys := range robustness.SystemNames() {
		for _, arm := range []string{"unguarded", "guarded"} {
			s := tr.total("system." + sys + "." + arm)
			vals["system."+sys+"."+arm+"_s"] = s
			trialSum += s
		}
	}
	trials := tr.durations("robustness.trial")
	for _, q := range []struct {
		name string
		p    float64
	}{{"robustness.trial_p50_ms", 0.5}, {"robustness.trial_p90_ms", 0.9}} {
		if v, err := percentile(trials, q.p); err == nil {
			vals[q.name] = 1000 * v
		}
	}
	vals["supervisor.checks"] = float64(checks)
	vals["runner.parallel_eff"] = trialSum / (trialWorkers * wall2)
	vals["campaign.overhead_s"] = tr.selfTotal("campaign.Execute")
	vals["trace_overhead_s"] = tr.total("matrix") - wall1
	vals["journal.append_us"], err = appendP50(b.dir, first, journalAppends)
	return vals, t, err
}

// tracedTrial computes matrix trial i as the robustness campaign kind
// does: the cell's attacked run and its attack-free twin, each a span.
func (b *matrixBench) tracedTrial(tr *tracer, parent, i int) robustness.TrialOutcome {
	r := b.spec.Robustness
	c := b.cells[i/r.Trials]
	sys := robustness.Systems()[c.SysIdx]
	prof := b.profiles[c.ProfIdx]
	seed := robustness.TrialSeed(r.RootSeed, c, i%r.Trials)
	name := "system." + sys.Name() + ".unguarded"
	if c.Guarded {
		name = "system." + sys.Name() + ".guarded"
	}
	id := tr.begin(parent, "robustness.trial")
	defer tr.end(id)
	var atk, twin robustness.TrialResult
	tr.timed(id, name, func() { atk = sys.Run(sys.Attacks()[c.AtkIdx], c.Guarded, prof, seed, r.Quick) })
	tr.timed(id, name, func() { twin = sys.Run("", c.Guarded, prof, seed, r.Quick) })
	return robustness.TrialOutcome{
		Detected: atk.Detected, Damage: atk.Damage, Checks: atk.Checks,
		TwinFlagged: twin.Detected, TwinDamage: twin.Damage, TwinChecks: twin.Checks,
	}
}

// ------------------------------------------------------------------ fuzz

// fuzzBench is a fault-mode scenario-fuzzing campaign with shrinking.
type fuzzBench struct {
	campaignBench
}

// fuzzRecord is the fuzz campaign kind's journaled trial verdict.
type fuzzRecord struct {
	Seed       uint64            `json:"seed"`
	Violations []audit.Violation `json:"violations,omitempty"`
}

func openFuzz(o options, dir string) (instance, error) {
	fs := o.size.fuzz
	fs.RootSeed = o.seed
	spec, err := campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &fs}.Canon()
	if err != nil {
		return nil, err
	}
	return &fuzzBench{campaignBench{spec: spec, trials: spec.Fuzz.Seeds, dir: dir}}, nil
}

func (b *fuzzBench) close() error { return nil }

func (b *fuzzBench) measure(d time.Duration) measurement {
	return b.campaignBench.measure(d, b.verify)
}

// verify checks the shape of a fuzz result: the campaign size, and a
// shrunk reproducer for every finding.
func (b *fuzzBench) verify(out []byte) error {
	var res campaign.FuzzResult
	if err := json.Unmarshal(out, &res); err != nil {
		return fmt.Errorf("fuzz result: %w", err)
	}
	if res.Seeds != b.trials {
		return fmt.Errorf("fuzz result covers %d seeds, want %d", res.Seeds, b.trials)
	}
	for _, f := range res.Failures {
		if f.Shrunk == nil {
			return fmt.Errorf("fuzz finding at trial %d was not shrunk", f.Trial)
		}
	}
	return nil
}

func (b *fuzzBench) trace(tr *tracer, profPath string) (map[string]float64, tally, error) {
	var t tally
	ref, wall2, wall1, err := b.references(&t)
	if err != nil {
		return nil, t, err
	}
	// The traced campaign leaves shrinking out of Execute, then shrinks
	// each finding in a span of its own.
	fs := *b.spec.Fuzz
	fs.Shrink = false
	noShrink := campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &fs}
	gen := fs.GenConfig()
	seeds := runner.Seeds(fs.RootSeed, b.trials)

	p, err := startProfile(profPath)
	if err != nil {
		return nil, t, err
	}
	events := 0
	var first campaign.TrialRec
	root := tr.begin(0, "fuzz")
	got, err := b.tracedExecute(tr, root, noShrink, func(exec, i int) (campaign.TrialRec, error) {
		id := tr.begin(exec, "fuzz.trial")
		defer tr.end(id)
		var scn *scenario.Scenario
		var rep scenario.Report
		tr.timed(id, "fuzz.Generate", func() { scn = fuzz.Generate(seeds[i], gen) })
		tr.timed(id, "scenario.Build", func() { scenario.Build(scn) })
		tr.timed(id, "scenario.RunChecked", func() { rep = scenario.RunChecked(scn, scenario.Options{}) })
		events += 2 * rep.EventCount
		data, err := json.Marshal(fuzzRecord{Seed: seeds[i], Violations: rep.Violations})
		rec := campaign.TrialRec{Trial: i, Data: data}
		if i == 0 {
			first = rec
		}
		return rec, err
	})
	var res campaign.FuzzResult
	if err == nil {
		err = json.Unmarshal(got, &res)
	}
	shrinkRuns := 0
	for i := range res.Failures {
		f := &res.Failures[i]
		tr.timed(root, "fuzz.Shrink", func() { f.Shrunk, f.ShrinkRuns = fuzz.Shrink(f.Scenario, f.Rule, fs.ShrinkBudget) })
		shrinkRuns += f.ShrinkRuns
	}
	tr.end(root)
	shares, perr := p.stop()
	if err == nil {
		got, err = json.MarshalIndent(res, "", "  ")
		got = append(got, '\n')
	}
	t.check(sameBytes("traced fuzz campaign", got, ref, err))
	if perr != nil {
		return nil, t, perr
	}

	vals := map[string]float64{}
	for name, share := range shares {
		vals["cpu."+name+".share"] = share
	}
	runS := tr.total("scenario.RunChecked")
	vals["fuzz.generate_s"] = tr.total("fuzz.Generate")
	vals["scenario.build_s"] = tr.total("scenario.Build")
	vals["scenario.run_s"] = runS
	vals["netsim.events"] = float64(events)
	if events > 0 {
		vals["netsim.ns_per_event"] = 1e9 * runS / float64(events)
	}
	vals["fuzz.shrink_s"] = tr.total("fuzz.Shrink")
	vals["fuzz.findings"] = float64(len(res.Failures))
	vals["fuzz.shrink_runs"] = float64(shrinkRuns)
	vals["runner.parallel_eff"] = (vals["fuzz.generate_s"] + runS) / (trialWorkers * wall2)
	vals["campaign.overhead_s"] = tr.selfTotal("campaign.Execute")
	vals["trace_overhead_s"] = tr.total("fuzz") - wall1
	vals["journal.append_us"], err = appendP50(b.dir, first, journalAppends)
	return vals, t, err
}
