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
	"dui/internal/bnn"
	"dui/internal/conntrack"
	"dui/internal/dapper"
	"dui/internal/fuzz"
	"dui/internal/graph"
	"dui/internal/nethide"
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/pcc"
	"dui/internal/pytheas"
	"dui/internal/robustness"
	"dui/internal/ron"
	"dui/internal/runner"
	"dui/internal/scenario"
	"dui/internal/sketch"
	"dui/internal/sppifo"
	"dui/internal/stats"
	"dui/internal/supervisor"
	"dui/internal/trace"
)

// BenchmarkEngineE1 measures engine throughput on a synthetic mixed
// workload: a packet storm of clustered back-to-back timestamps through
// one link, over a background population of per-flow hold timers with
// exponential gaps. It is an engine micro-benchmark named after the
// first one this repo wrote, not a model of any experiment: blink-fig2
// replays traces into the selector without netsim. A fixed set of packets
// circulates host-to-host (the receiver reflects each one back), so the
// steady state allocates nothing and the measured cost is pure event
// machinery. lanes=off routes every packet's delivery through a closure
// event; lanes=on is link batching. A packet-hop is one event on both:
// serialization-done is settled lazily, not executed, so events/sec here
// is not comparable with BENCH_4.json and earlier, which counted two
// events per hop; ns/packet (wall time per delivered packet, timer events
// included) is. The events/sec ratio between the two modes is gated by
// cmd/benchgate. Traces are byte-identical either way
// (TestLinkLanesTraceIdenticalToClosures): only the throughput differs.
func BenchmarkEngineE1(b *testing.B) {
	for _, lanes := range []bool{false, true} {
		lanes := lanes
		b.Run(lanesName(lanes), func(b *testing.B) {
			netsim.DebugHooks.DisableLinkLanes = !lanes
			defer func() { netsim.DebugHooks.DisableLinkLanes = false }()

			nw := netsim.New()
			h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
			h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
			nw.Connect(h1, h2, 1e9, 0.001, 0)
			nw.ComputeRoutes()
			// Reflect every delivery back at its sender: the packet
			// population circulates forever with zero allocation.
			delivered := 0
			reflect := netsim.ReceiverFunc(func(now float64, p *packet.Packet) {
				delivered++
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
			delivered = 0
			done := 0
			for done < b.N {
				done += e.RunUntil(e.Now() + 0.01)
			}
			b.StopTimer()
			reportEngineRates(b, done, delivered)
		})
	}
}

// lanesName names an engine benchmark's link-lane mode.
func lanesName(lanes bool) string {
	if lanes {
		return "lanes=on"
	}
	return "lanes=off"
}

// reportEngineRates reports events/sec and ns/packet for a timed engine
// run that executed events and delivered packets.
func reportEngineRates(b *testing.B, events, packets int) {
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	if packets == 0 {
		b.Fatal("no packets delivered")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(packets), "ns/packet")
}

// BenchmarkEngineHold isolates the event heap on the pure timer hold
// model: a large population of self-rescheduling timers with exponential
// inter-event gaps and no packets, so no lane batching applies.
func BenchmarkEngineHold(b *testing.B) {
	const population = 1 << 16
	e := netsim.NewEngine()
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
}

// BenchmarkEngineLinkBurst measures the packet path through a link:
// bursts of back-to-back packets serialize, propagate, and deliver.
// lanes=off routes every delivery through a closure event; lanes=on is
// the batching fast path. Each packet-hop is one event either way
// (serialization-done is settled lazily), so ns/packet is wall time per
// delivered packet. Traces are byte-identical either way
// (TestLinkLanesTraceIdenticalToClosures): only the throughput differs.
func BenchmarkEngineLinkBurst(b *testing.B) {
	for _, lanes := range []bool{false, true} {
		lanes := lanes
		b.Run(lanesName(lanes), func(b *testing.B) {
			netsim.DebugHooks.DisableLinkLanes = !lanes
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
			reportEngineRates(b, int(events), received)
		})
	}
}

// BenchmarkE1BlinkFig2 regenerates Fig 2 at reduced run count.
func BenchmarkE1BlinkFig2(b *testing.B) {
	var hit float64
	for i := 0; i < b.N; i++ {
		res := blink.RunFig2(blink.Fig2Config{Runs: 2, Duration: 300, Seed: uint64(i + 1), MeanFlowDuration: 6.35})
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
	cfg := blink.Fig2Config{Runs: 8, Duration: 150, LegitFlows: 500, Seed: 1, MeanFlowDuration: 6.35}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var cells float64
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Parallel = workers
				res := blink.RunFig2(c)
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
		prefixes := trace.SyntheticSurvey(6, stats.NewRNG(uint64(i+1)))
		rows := blink.RunSurvey(blink.Config{}, prefixes, 200, uint64(i+1), 0)
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
		res := blink.RunHijack(blink.HijackConfig{Seed: uint64(i + 1), TriggerAt: 100, Duration: 120})
		cells = float64(res.MaliciousCellsAtTrigger)
	}
	b.ReportMetric(cells, "malicious-cells")
}

// BenchmarkE4PCCOscillation runs the attacked PCC flow.
func BenchmarkE4PCCOscillation(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res := pcc.RunOscillation(pcc.OscConfig{Duration: 60, Seed: uint64(i + 1), Attack: true})
		rate = res.Flows[0].MeanRateLate
	}
	b.ReportMetric(rate, "pinned-rate-pps")
}

// BenchmarkE5PytheasPoisoning runs the group-poisoning attack.
func BenchmarkE5PytheasPoisoning(b *testing.B) {
	var qoe float64
	for i := 0; i < b.N; i++ {
		cfg := pytheas.SimConfig{Seed: uint64(i + 1), Sessions: 600, Epochs: 150}
		res := pytheas.Run(cfg, pytheas.Poison{Bots: 90, ReportMultiplier: 5}.Defaults())
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
		virt, _ := nethide.Obfuscate(g, pairs, nethide.Config{DensityCap: 30}, stats.NewRNG(uint64(i+1)))
		out := nethide.EvaluateAttack(nethide.ShortestPaths(g, pairs), nethide.Survey(virt, pairs))
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
		out := ron.RunProbeAttack(uint64(i+1), func(o *ron.Overlay) (ron.ProbeTamper, int) {
			return ron.DelayProbes(0, 1, 0.2), -1
		})
		inflation = out.Inflation
	}
	b.ReportMetric(inflation, "latency-inflation")
}

// BenchmarkE8Defenses runs the Blink supervisor against the hijack.
func BenchmarkE8Defenses(b *testing.B) {
	clean := blink.RunFailover(blink.FailoverConfig{FailAt: 0, Duration: 15})
	model := supervisor.NewRTOModel(clean.SRTTs, 0.2)
	var vetoed float64
	for i := 0; i < b.N; i++ {
		res := blink.RunHijack(blink.HijackConfig{
			Seed: uint64(i + 1), TriggerAt: 100, Duration: 120,
			Hook: func(p *blink.Pipeline) { supervisor.GuardPipeline(p, model) },
		})
		vetoed = float64(res.VetoedReroutes)
	}
	b.ReportMetric(vetoed, "vetoed-reroutes")
}

// BenchmarkMatrixSystem runs one robustness-matrix trial per op: the
// system's guarded arm under its first attack, fault-free, at the full
// (non-quick) scale and a fixed seed, exactly as the matrix calls it. The
// <system>-twin sub-benchmarks run the attack-free arm RunTrial pairs with
// every attacked one: for blink, pcc and dapper that is a whole TCP-driven
// run (Blink's genuine failover, PCC's honest equalizer, DAPPER's honest
// network-limited flow). blink-gray-twin and pcc-gray-twin run the same
// twins under the gray-failure profile, whose fault plane holds, drops,
// corrupts and duplicates packets. dapper-inflate runs DAPPER's
// inflate-window attack, whose sender re-arms its RTO on every segment
// and ACK, and sketch-hide runs the targeted hiders on top of the
// pollution. The allocs/op of the systems converted to incremental state,
// and of the TCP-path arms (blink, pcc, dapper, dapper-inflate, conntrack
// and the five twins), are ceilinged in BENCH_FLOOR.json; ns/op is the
// arm's share of a matrix cell.
func BenchmarkMatrixSystem(b *testing.B) {
	run := func(name string, sys robustness.System, attack string, prof robustness.Profile) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys.Run(attack, true, prof, 1, false)
			}
		})
	}
	none, gray := robustness.AllProfiles[0], robustness.AllProfiles[1]
	for _, sys := range robustness.Systems() {
		switch sys.Name() {
		case "pytheas", "bnn", "sketch", "conntrack":
			run(sys.Name(), sys, sys.Attacks()[0], none)
		case "blink", "pcc", "dapper":
			run(sys.Name(), sys, sys.Attacks()[0], none)
			run(sys.Name()+"-twin", sys, "", none)
			if sys.Name() != "dapper" {
				run(sys.Name()+"-gray-twin", sys, "", gray)
			}
		}
		switch sys.Name() {
		case "dapper":
			run("dapper-inflate", sys, "inflate-window", none)
		case "sketch":
			run("sketch-hide", sys, "hide", none)
		}
	}
}

// BenchmarkScenarioAuditedRun measures the fault-mode fuzzing trial: one
// op is scenario.RunChecked — a double run under the full audit stack —
// over each of 32 fixed generated fault-mode scenarios. allocs/op and B/op
// cover everything a trial builds and throws away (network, event heap,
// lanes, packets, auditors, trace digest), so a per-run fixed cost
// coming back shows here before it shows in a campaign. trials/sec is the
// headline metric; the seeds are fixed, so the work per op never changes.
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
// timed loop is the real per-packet path of duireport blink-pop —
// generator Next plus bank FeedHashed with the flow hash the generator
// carries, as popscale.Run feeds — and must stay at 0 allocs/op (pinned
// here and by TestMonitorBankFeedZeroAllocs). flows/sec is the headline
// metric: concurrently-active flows × virtual seconds per wall second,
// which for this workload equals events/sec ÷ PPS.
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
		bank.FeedHashed(ev.Prefix, ev.Time, ev.Pkt, ev.FlowHash)
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
	m := blink.NewMonitorBank(1, blink.Config{})
	st := trace.NewLegit(trace.LegitConfig{
		Victim: blink.Victim, Flows: 500, Dur: trace.ExpDuration{MeanSec: 6},
		PPS: 2, Until: math.Inf(1), SrcBase: blink.LegitSrcBase,
	}, stats.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, _ := st.Next()
		m.Feed(0, ev.Time, ev.Pkt)
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
		out := dapper.Run(dapper.TrueSender, dapper.InjectRetransmissions, 15)
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
		res := conntrack.RunExhaustion(conntrack.ExhaustionConfig{Seed: uint64(i + 1), AttackSYNRate: 2000})
		broken = res.BrokenFraction
	}
	b.ReportMetric(broken, "broken-fraction")
}

// BenchmarkE7fBNNEvasion runs the adversarial-example search.
func BenchmarkE7fBNNEvasion(b *testing.B) {
	var evasion float64
	for i := 0; i < b.N; i++ {
		_, rows := bnn.Experiment{Seed: uint64(i) | 1}.Run([]int{4})
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
			b.ReportMetric(blink.RequiredQm(64, 32, tr, 510), "required-qm")
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
				qm = blink.RequiredQm(64, 32, 8.37, tb)
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
				res := pcc.RunOscillation(pcc.OscConfig{Duration: 60, Seed: uint64(i + 1), Attack: true, Utility: tc.u})
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
				amp = sppifo.Experiment{Queues: k, Seed: uint64(i + 1)}.Run().Amplification
			}
			b.ReportMetric(amp, "amplification")
		})
	}
}
