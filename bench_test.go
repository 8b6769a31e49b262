package dui

// One benchmark per experiment of the paper (DESIGN.md §3). The benches
// run reduced-scale versions so `go test -bench=. -benchmem` finishes in
// minutes; the cmd/ binaries run the full paper parameters. Reported
// custom metrics carry each experiment's headline number so a bench run
// doubles as a regression check on the reproduced shapes.

import (
	"fmt"
	"math"
	"testing"

	"dui/internal/blink"
	"dui/internal/conntrack"
	"dui/internal/dapper"
	"dui/internal/fuzz"
	"dui/internal/graph"
	"dui/internal/nethide"
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/pcc"
	"dui/internal/pytheas"
	"dui/internal/runner"
	"dui/internal/scenario"
	"dui/internal/sketch"
	"dui/internal/sppifo"
	"dui/internal/stats"
	"dui/internal/trace"
)

// BenchmarkEngineE1 measures engine throughput on the E1-shaped workload:
// a sustained packet storm through a bottleneck link — the clustered
// back-to-back timestamps Blink's FIN/RST storm produces — over a
// background population of per-flow hold timers with exponential gaps.
// A fixed set of packets circulates host-to-host (the receiver reflects
// each one back), so the steady state allocates nothing and the measured
// cost is pure event machinery. sched=heap/lanes=off routes every packet
// through the two closure events of the PR 2 engine — exactly the
// BENCH_2-era code path, doubling as the baseline; sched=wheel/lanes=on
// is the timing wheel with link batching. The events/sec ratio between
// the two is the tentpole speedup figure tracked in EXPERIMENTS.md and
// gated by cmd/benchgate. Traces are byte-identical either way
// (TestLinkLanesTraceIdenticalToClosures) — only the throughput differs.
func BenchmarkEngineE1(b *testing.B) {
	type mode struct {
		name  string
		sched netsim.Scheduler
		lanes bool
	}
	for _, m := range []mode{
		{"sched=heap/lanes=off", netsim.SchedulerHeap, false},
		{"sched=wheel/lanes=on", netsim.SchedulerWheel, true},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			prev := netsim.SetDefaultScheduler(m.sched)
			defer netsim.SetDefaultScheduler(prev)
			netsim.DebugHooks.DisableLinkLanes = !m.lanes
			defer func() { netsim.DebugHooks.DisableLinkLanes = false }()

			nw := netsim.New()
			h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
			h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
			nw.Connect(h1, h2, 1e9, 0.001, 0)
			nw.ComputeRoutes()
			// Reflect every delivery back at its sender: the packet
			// population circulates forever with zero allocation.
			reflect := netsim.ReceiverFunc(func(now float64, p *packet.Packet) {
				p.Src, p.Dst = p.Dst, p.Src
				if p.Src == h1.Addr {
					h1.Send(p)
				} else {
					h2.Send(p)
				}
			})
			h1.SetReceiver(reflect)
			h2.SetReceiver(reflect)
			const packets = 2048   // in-flight FIN/RST-storm population
			const timers = 1 << 12 // background per-flow hold timers (RTO-scale)
			for i := 0; i < packets; i++ {
				h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{Seq: uint32(i), Flags: packet.FlagFIN}, 1500))
			}
			e := nw.Engine()
			rng := stats.NewRNG(0xE1)
			var tick func()
			tick = func() { e.After(rng.Exp(1), tick) }
			for i := 0; i < timers; i++ {
				e.After(rng.Float64(), tick)
			}
			// Let circulation and the timer population reach steady state.
			nw.RunUntil(nw.Now() + 1)
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				done += e.RunUntil(e.Now() + 0.01)
			}
			b.StopTimer()
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkEngineHold isolates the scheduler on the pure timer hold
// model: a large population of self-rescheduling timers with exponential
// inter-event gaps and no packets. This is the heap's best case (no
// batching applies), so it bounds the scheduler-only share of the E1
// speedup.
func BenchmarkEngineHold(b *testing.B) {
	const population = 1 << 16
	for _, sched := range []netsim.Scheduler{netsim.SchedulerHeap, netsim.SchedulerWheel} {
		sched := sched
		b.Run("sched="+sched.String(), func(b *testing.B) {
			e := netsim.NewEngineSched(sched)
			rng := stats.NewRNG(0xE1)
			var tick func()
			tick = func() { e.After(rng.Exp(1), tick) }
			for i := 0; i < population; i++ {
				e.After(rng.Float64(), tick)
			}
			// Let the queue reach steady state before timing.
			e.RunUntil(2)
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				done += e.RunUntil(e.Now() + 0.01)
			}
			b.StopTimer()
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkEngineLinkBurst measures the packet path through a link:
// bursts of back-to-back packets serialize, propagate, and deliver.
// lanes=off routes every packet through the two closure events of the
// PR 2 engine (with the heap scheduler, this is exactly the BENCH_2-era
// code); lanes=on is the batching fast path on the timing wheel. Traces
// are byte-identical either way (TestLinkLanesTraceIdenticalToClosures) —
// only the events/sec differ.
func BenchmarkEngineLinkBurst(b *testing.B) {
	type mode struct {
		name  string
		sched netsim.Scheduler
		lanes bool
	}
	for _, m := range []mode{
		{"sched=heap/lanes=off", netsim.SchedulerHeap, false},
		{"sched=wheel/lanes=on", netsim.SchedulerWheel, true},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			prev := netsim.SetDefaultScheduler(m.sched)
			defer netsim.SetDefaultScheduler(prev)
			netsim.DebugHooks.DisableLinkLanes = !m.lanes
			defer func() { netsim.DebugHooks.DisableLinkLanes = false }()

			nw := netsim.New()
			h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
			h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
			nw.Connect(h1, h2, 1e9, 0.001, 0)
			nw.ComputeRoutes()
			received := 0
			h2.SetReceiver(netsim.ReceiverFunc(func(now float64, p *packet.Packet) { received++ }))
			// The burst population is allocated once and re-sent every
			// iteration — each burst fully drains before the next, and a
			// direct host-to-host Send only restamps the packet ID — so
			// the timed loop measures the link path alone, allocation-free.
			const burst = 256
			pkts := make([]*packet.Packet, burst)
			for j := range pkts {
				pkts[j] = packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{Seq: uint32(j)}, 1500)
			}
			b.ReportAllocs()
			b.ResetTimer()
			events := uint64(0)
			for i := 0; i < b.N; i += burst {
				before := nw.Engine().Executed()
				for j := 0; j < burst; j++ {
					h1.Send(pkts[j])
				}
				nw.RunUntil(nw.Now() + 1)
				events += nw.Engine().Executed() - before
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			if received == 0 {
				b.Fatal("no packets delivered")
			}
		})
	}
}

// BenchmarkE1BlinkFig2 regenerates Fig 2 at reduced run count.
func BenchmarkE1BlinkFig2(b *testing.B) {
	var hit float64
	for i := 0; i < b.N; i++ {
		res := RunFig2(Fig2Config{Runs: 2, Duration: 300, Seed: uint64(i + 1), MeanFlowDuration: 6.35})
		hit = stats.Mean(res.HitTimes)
	}
	b.ReportMetric(hit, "mean-hit-s")
}

// BenchmarkE1BlinkFig2Parallel compares the sequential and pooled Fig 2
// drivers at a fixed reduced scale. The trial runner guarantees the
// results are bit-identical at every worker count, so the sub-benchmarks
// measure pure scheduling overhead/speedup. On a single-core box the
// workers=4 variant degenerates to sequential plus pool overhead; on
// 4+ cores it approaches a 4x wall-clock reduction (8 independent
// trials, embarrassingly parallel).
func BenchmarkE1BlinkFig2Parallel(b *testing.B) {
	cfg := Fig2Config{Runs: 8, Duration: 150, LegitFlows: 500, Seed: 1, MeanFlowDuration: 6.35}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var cells float64
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Parallel = workers
				res := RunFig2(c)
				cells = res.SimMean.Values[len(res.SimMean.Values)-1]
			}
			b.ReportMetric(cells, "end-cells")
		})
	}
}

// BenchmarkE2PrefixSurvey regenerates the tR survey.
func BenchmarkE2PrefixSurvey(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		prefixes := SyntheticSurvey(6, uint64(i+1))
		rows := RunSurvey(BlinkConfig{}, prefixes, 200, uint64(i+1))
		trs := make([]float64, len(rows))
		for j, r := range rows {
			trs[j] = r.TR
		}
		med = stats.Median(trs)
	}
	b.ReportMetric(med, "median-tR-s")
}

// BenchmarkE3BlinkHijack runs the end-to-end hijack.
func BenchmarkE3BlinkHijack(b *testing.B) {
	var cells float64
	for i := 0; i < b.N; i++ {
		res := RunHijack(HijackConfig{Seed: uint64(i + 1), TriggerAt: 100, Duration: 120})
		cells = float64(res.MaliciousCellsAtTrigger)
	}
	b.ReportMetric(cells, "malicious-cells")
}

// BenchmarkE4PCCOscillation runs the attacked PCC flow.
func BenchmarkE4PCCOscillation(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res := RunOscillation(OscConfig{Duration: 60, Seed: uint64(i + 1), Attack: true})
		rate = res.Flows[0].MeanRateLate
	}
	b.ReportMetric(rate, "pinned-rate-pps")
}

// BenchmarkE5PytheasPoisoning runs the group-poisoning attack.
func BenchmarkE5PytheasPoisoning(b *testing.B) {
	var qoe float64
	for i := 0; i < b.N; i++ {
		cfg := PytheasConfig{Seed: uint64(i + 1), Sessions: 600, Epochs: 150}
		res := RunPytheas(cfg, pytheas.Poison{Bots: 90, ReportMultiplier: 5}.Defaults())
		qoe = res.HonestQoELate
	}
	b.ReportMetric(qoe, "poisoned-qoe")
}

// BenchmarkE6NetHide runs obfuscation + attacker evaluation on Abilene.
func BenchmarkE6NetHide(b *testing.B) {
	g := graph.Abilene()
	pairs := nethide.AllPairs(g)
	var success float64
	for i := 0; i < b.N; i++ {
		virt, _ := Obfuscate(g, pairs, NetHideConfig{DensityCap: 30}, uint64(i+1))
		out := nethide.EvaluateAttack(nethide.ShortestPaths(g, pairs), nethide.Survey(virt, pairs), 0)
		success = out.Success
	}
	b.ReportMetric(success, "attack-success")
}

// BenchmarkE7aSPPIFO runs the adversarial-rank comparison.
func BenchmarkE7aSPPIFO(b *testing.B) {
	var amp float64
	for i := 0; i < b.N; i++ {
		out := sppifo.Experiment{Seed: uint64(i + 1), Victims: 1000}.Run()
		amp = out.Amplification
	}
	b.ReportMetric(amp, "amplification")
}

// BenchmarkE7bSketchPollution runs the FlowRadar pollution attack.
func BenchmarkE7bSketchPollution(b *testing.B) {
	var hidden float64
	for i := 0; i < b.N; i++ {
		rows := sketch.PollutionExperiment{Seed: uint64(i + 1), LegitFlows: 800}.Run([]int{300})
		for _, r := range rows {
			if r.Crafted {
				hidden = 1 - r.AttackDecoded
			}
		}
	}
	b.ReportMetric(hidden, "attack-flows-hidden")
}

// BenchmarkE7cRONProbes runs the probe-manipulation attack.
func BenchmarkE7cRONProbes(b *testing.B) {
	var inflation float64
	for i := 0; i < b.N; i++ {
		out := RunProbeAttack(8, uint64(i+1), 0.2)
		inflation = out.Inflation
	}
	b.ReportMetric(inflation, "latency-inflation")
}

// BenchmarkE8Defenses runs the Blink supervisor against the hijack.
func BenchmarkE8Defenses(b *testing.B) {
	clean := RunFailover(FailoverConfig{FailAt: 0, Duration: 15})
	model := NewRTOModel(clean.SRTTs, 0.2)
	var vetoed float64
	for i := 0; i < b.N; i++ {
		res := RunHijack(HijackConfig{
			Seed: uint64(i + 1), TriggerAt: 100, Duration: 120,
			Hook: func(p *blink.Pipeline) { GuardPipeline(p, model) },
		})
		vetoed = float64(res.VetoedReroutes)
	}
	b.ReportMetric(vetoed, "vetoed-reroutes")
}

// BenchmarkScenarioAuditedRun measures the fault-mode fuzzing trial: one
// op is scenario.RunChecked — a double run under the full audit stack —
// over each of 32 fixed generated fault-mode scenarios. allocs/op and B/op
// cover everything a trial builds and throws away (network, wheel, lanes,
// packets, auditors, trace digest), so a per-run fixed cost coming back
// shows here before it shows in a campaign. trials/sec is the headline
// metric; the seeds are fixed, so the work per op never changes.
func BenchmarkScenarioAuditedRun(b *testing.B) {
	var scns []*scenario.Scenario
	for _, seed := range runner.Seeds(1, 32) {
		scns = append(scns, fuzz.Generate(seed, fuzz.GenConfig{FaultModes: true}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scns {
			if rep := scenario.RunChecked(s, scenario.Options{}); rep.HasRule(scenario.RuleDeterminism) {
				b.Fatalf("scenario %#x: %v", s.Seed, rep.Violations)
			}
		}
	}
	b.ReportMetric(float64(b.N*len(scns))/b.Elapsed().Seconds(), "trials/sec")
}

// BenchmarkPopScale measures the PoP-scale steady state: a prefix-
// interleaved stream of 4096 prefixes × 64 flows (262k concurrently
// active) fed through a MonitorBank's flat per-prefix selectors. The
// timed loop is the real per-packet path of cmd/blink-pop — generator
// Next plus bank Feed — and must stay at 0 allocs/op (pinned here and by
// TestMonitorBankFeedZeroAllocs). flows/sec is the headline metric:
// concurrently-active flows × virtual seconds per wall second, which for
// this workload equals events/sec ÷ PPS.
func BenchmarkPopScale(b *testing.B) {
	const prefixes = 4096
	pop := trace.PopConfig{
		Prefixes: prefixes, FlowsPerPrefix: 64,
		Dur: trace.ExpDuration{MeanSec: 6.35}, PPS: 2,
		Until: math.Inf(1), Seed: 1,
	}.Defaults()
	sh := trace.NewPopShard(pop, 0, prefixes)
	bank := blink.NewMonitorBank(prefixes, blink.Config{})
	feed := func() {
		ev, _ := sh.Next()
		bank.Feed(ev.Prefix, ev.Time, ev.Pkt)
	}
	// Warm through initial occupancy and into eviction/renewal churn.
	for i := 0; i < prefixes*64*2; i++ {
		feed()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed()
	}
	b.StopTimer()
	evps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(evps, "events/sec")
	b.ReportMetric(evps/pop.PPS, "flows/sec")
}

// BenchmarkSubstrateFlowSelector measures the hot data-plane path: one
// packet through Blink's flow selector.
func BenchmarkSubstrateFlowSelector(b *testing.B) {
	m := blink.NewMonitor(blink.Config{})
	st := trace.NewLegit(trace.LegitConfig{
		Victim: blink.Victim, Flows: 500, Dur: trace.ExpDuration{MeanSec: 6},
		PPS: 2, Until: math.Inf(1), SrcBase: blink.LegitSrcBase,
	}, stats.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, _ := st.Next()
		m.Feed(ev.Time, ev.Pkt)
	}
}

func BenchmarkSubstrateSketchAdd(b *testing.B) {
	fr := sketch.New(4096, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Add(sketch.FlowID(i))
	}
}

func BenchmarkSubstratePCCUtility(b *testing.B) {
	var u float64
	for i := 0; i < b.N; i++ {
		u = pcc.Allegro(float64(i%1000)+1, float64(i%50)/1000)
	}
	_ = u
}

// BenchmarkE7dDAPPERMisblaming runs the diagnosis mis-blaming attack.
func BenchmarkE7dDAPPERMisblaming(b *testing.B) {
	var flipped float64
	for i := 0; i < b.N; i++ {
		out := RunDapper(TrueSender, InjectRetransmissions, 15)
		if out.Diagnosis == dapper.NetworkLimited {
			flipped = 1
		}
	}
	b.ReportMetric(flipped, "diagnosis-flipped")
}

// BenchmarkE7eStateExhaustion runs the SilkRoad-style SYN flood.
func BenchmarkE7eStateExhaustion(b *testing.B) {
	var broken float64
	for i := 0; i < b.N; i++ {
		res := RunStateExhaustion(conntrack.ExhaustionConfig{Seed: uint64(i + 1), AttackSYNRate: 2000})
		broken = res.BrokenFraction
	}
	b.ReportMetric(broken, "broken-fraction")
}

// BenchmarkE7fBNNEvasion runs the adversarial-example search.
func BenchmarkE7fBNNEvasion(b *testing.B) {
	var evasion float64
	for i := 0; i < b.N; i++ {
		_, rows := RunBNNEvasion(uint64(i)|1, []int{4})
		for _, r := range rows {
			if r.Crafted {
				evasion = r.SuccessRate
			}
		}
	}
	b.ReportMetric(evasion, "evasion-rate")
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationBlinkEviction sweeps the flow-selector inactivity
// timeout: shorter eviction shortens tR, making the attack easier —
// the defender's dilemma (longer timeouts slow legitimate sampling).
func BenchmarkAblationBlinkEviction(b *testing.B) {
	for _, timeout := range []float64{1, 2, 4} {
		timeout := timeout
		b.Run(fmt.Sprintf("timeout=%.0fs", timeout), func(b *testing.B) {
			var tr float64
			for i := 0; i < b.N; i++ {
				tr = blink.MeasureTR(blink.Config{InactivityTimeout: timeout}, 300,
					trace.ExpDuration{MeanSec: 6}, 2, 60, 10, stats.NewRNG(uint64(i+1)))
			}
			b.ReportMetric(tr, "tR-s")
			b.ReportMetric(RequiredQm(64, 32, tr, 510, 0.95), "required-qm")
		})
	}
}

// BenchmarkAblationBlinkResetPeriod sweeps the sample-reset period tB
// (the attacker's time budget): required qm falls as tB grows.
func BenchmarkAblationBlinkResetPeriod(b *testing.B) {
	for _, tb := range []float64{120, 510, 1800} {
		tb := tb
		b.Run(fmt.Sprintf("tB=%.0fs", tb), func(b *testing.B) {
			var qm float64
			for i := 0; i < b.N; i++ {
				qm = RequiredQm(64, 32, 8.37, tb, 0.95)
			}
			b.ReportMetric(qm, "required-qm")
		})
	}
}

// BenchmarkAblationPCCUtility compares utility shapes under the
// equalizer: the sigmoid cliff (Allegro) vs a loss-linear utility.
func BenchmarkAblationPCCUtility(b *testing.B) {
	for _, tc := range []struct {
		name string
		u    pcc.Utility
	}{{"allegro", pcc.Allegro}, {"linear", pcc.Linear}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res := RunOscillation(OscConfig{Duration: 60, Seed: uint64(i + 1), Attack: true, Utility: tc.u})
				rate = res.Flows[0].MeanRateLate
			}
			b.ReportMetric(rate, "pinned-rate-pps")
		})
	}
}

// BenchmarkAblationSketchSizing sweeps table size against a fixed crafted
// attack: bigger tables resist longer but the stopping set scales with
// the targeted region, not the table.
func BenchmarkAblationSketchSizing(b *testing.B) {
	for _, m := range []int{2048, 4096, 8192} {
		m := m
		b.Run(fmt.Sprintf("cells=%d", m), func(b *testing.B) {
			var hidden float64
			for i := 0; i < b.N; i++ {
				rows := sketch.PollutionExperiment{M: m, Seed: uint64(i + 1)}.Run([]int{400})
				for _, r := range rows {
					if r.Crafted {
						hidden = 1 - r.AttackDecoded
					}
				}
			}
			b.ReportMetric(hidden, "attack-flows-hidden")
		})
	}
}

// BenchmarkAblationSPPIFOQueues sweeps the queue count against the
// adversarial sequence.
func BenchmarkAblationSPPIFOQueues(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		k := k
		b.Run(fmt.Sprintf("queues=%d", k), func(b *testing.B) {
			var amp float64
			for i := 0; i < b.N; i++ {
				amp = RunSPPIFO(k, uint64(i+1)).Amplification
			}
			b.ReportMetric(amp, "amplification")
		})
	}
}
