package pcc

import (
	"context"
	"fmt"
	"math"

	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/runner"
	"dui/internal/stats"
	"dui/internal/tcpflow"
)

// oscMinMI is the §4.2 experiment's monitor interval floor in seconds:
// large enough that per-MI loss is not dominated by quantization.
const oscMinMI float64 = 0.5

// OscConfig parameterizes the §4.2 experiment: one or many PCC flows, each
// through its own capacity-C access path toward a common destination, with
// or without the equalizer MitM on the shared pre-destination link.
type OscConfig struct {
	Flows int
	// CapacityPPS is each flow's bottleneck capacity in packets/s.
	CapacityPPS float64
	Attack      bool
	// Utility selects the victim's utility (nil = Allegro). The attacker
	// is always assumed to know it.
	Utility  Utility
	Duration float64
	Seed     uint64
	// EpsMax caps the victim's trial amplitude (0 = the sender default
	// 0.05). The supervisor's clamped deployment lowers it — see
	// supervisor.EpsRange.
	EpsMax float64
	// EqDetectMargin, EqExtraDrop and EqActiveFrom tune the equalizer
	// when Attack is set (0 = the Equalizer defaults) — the knobs the
	// robustness matrix's PCC attack search varies.
	EqDetectMargin float64
	EqExtraDrop    float64
	EqActiveFrom   float64
	// Chaos, if set, runs once routes are computed and before any flow
	// starts: bottlenecks are the per-flow rIn–rOut capacity links,
	// shared the rOut–destination link. The fault-injection point for
	// the robustness matrix; nil leaves the run bit-identical.
	Chaos func(nw *netsim.Network, bottlenecks []*netsim.Link, shared *netsim.Link) `json:"-"`
}

// Defaults fills a representative configuration.
func (c OscConfig) Defaults() OscConfig {
	if c.Flows <= 0 {
		c.Flows = 1
	}
	if c.CapacityPPS <= 0 {
		c.CapacityPPS = 1000
	}
	if c.Duration <= 0 {
		c.Duration = 120
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// FlowOutcome summarizes one flow at the end of the run.
type FlowOutcome struct {
	// MeanRateLate is the mean base rate over the last third of the run.
	MeanRateLate float64
	// OscAmplitude is (max-min)/mean of the per-MI rates over the last
	// third — the paper's ±5% forced fluctuation shows up here.
	OscAmplitude float64
	FinalEps     float64
	// MaxEps is the largest trial amplitude reached over the whole run
	// (ε resets whenever a decision round concludes, so the escalation
	// the attack causes shows in the maximum, not the final value).
	MaxEps     float64
	FinalState State
}

// OscResult is the outcome of the E4 experiment.
type OscResult struct {
	Config OscConfig
	Flows  []FlowOutcome
	// MeanRateLate averages the per-flow late rates.
	MeanRateLate float64
	// AggSeries is the destination's arrival rate (packets/s per bin).
	AggSeries *stats.Series
	// AggMeanLate is the mean of AggSeries over the last third.
	AggMeanLate float64
	// AggCV is the coefficient of variation of the aggregate arrival
	// rate over the last third — the destination-side traffic
	// fluctuation the attacker manufactures.
	AggCV float64
	// DropFraction is the attacker's budget (0 when Attack is false).
	DropFraction float64
	// Records holds flow 0's monitor-interval history (supervisor input).
	Records []MIRecord
}

// OscSweep runs several independent E4 configurations (clean vs
// attacked, different utilities, fleet sizes …) on the parallel trial
// runner and returns the results in configuration order. Each
// configuration is fully seeded by its own Seed field, so the output is
// identical at any worker count (0 = GOMAXPROCS).
func OscSweep(cfgs []OscConfig, workers int) []*OscResult {
	results, _ := runner.Map(context.Background(), cfgs, 0, runner.Config{Workers: workers},
		func(_ context.Context, t runner.Trial, cfg OscConfig) (*OscResult, error) {
			res := RunOscillation(cfg)
			t.ReportVirtual(res.Config.Duration)
			return res, nil
		})
	return results
}

// RunOscillation runs E4. Topology per flow i:
//
//	sender_i ── rIn ──(capacity C)── rOut ── destination
//
// with the equalizer tap (when attacking) on the shared rOut–destination
// link, where a single MitM vantage point sees every flow to the victim
// destination.
func RunOscillation(cfg OscConfig) *OscResult {
	cfg = cfg.Defaults()
	rng := stats.NewRNG(cfg.Seed)
	res := &OscResult{Config: cfg}

	nw := netsim.New()
	dst := nw.AddHost("dst", packet.MustParseAddr("10.9.0.1"))
	rOut := nw.AddRouter("rOut")
	shared := nw.Connect(rOut, dst, 0, 0.005, 0)
	senders := make([]*netsim.Node, cfg.Flows)
	bottlenecks := make([]*netsim.Link, cfg.Flows)
	for i := range senders {
		senders[i] = nw.AddHost(fmt.Sprintf("s%d", i), packet.MustParseAddr("20.0.0.1")+packet.Addr(i))
		rIn := nw.AddRouter(fmt.Sprintf("rIn%d", i))
		nw.Connect(senders[i], rIn, 0, 0.005, 0)
		// Per-flow bottleneck: capacity C pps at the flow's packet size.
		bottlenecks[i] = nw.Connect(rIn, rOut, cfg.CapacityPPS*1250*8, 0.005, 50)
	}
	nw.ComputeRoutes()
	if cfg.Chaos != nil {
		cfg.Chaos(nw, bottlenecks, shared)
	}

	var eq *Equalizer
	if cfg.Attack {
		util := cfg.Utility
		if util == nil {
			util = Allegro
		}
		eq = NewEqualizer(util, rng.Child())
		if cfg.EqDetectMargin > 0 {
			eq.DetectMargin = cfg.EqDetectMargin
		}
		if cfg.EqExtraDrop > 0 {
			eq.ExtraDrop = cfg.EqExtraDrop
		}
		eq.ActiveFrom = cfg.EqActiveFrom
		shared.AttachTap(eq)
	}

	// Destination arrival-rate accounting.
	bin := 0.5
	agg := stats.NewSeries(0, bin, int(cfg.Duration/bin))
	de := tcpflow.NewEndpoint(dst)
	flows := make([]*Sender, cfg.Flows)
	for i := range flows {
		key := packet.FlowKey{
			Src: senders[i].Addr, Dst: dst.Addr,
			SrcPort: uint16(4000 + i), DstPort: 8080, Proto: packet.ProtoTCP,
		}
		se := tcpflow.NewEndpoint(senders[i])
		flows[i] = Start(se, de, Config{
			Key: key, MaxRate: 4 * cfg.CapacityPPS,
			Utility: cfg.Utility, MinMI: oscMinMI, Duration: cfg.Duration,
			EpsMax: cfg.EpsMax,
		}, rng.Child())
	}
	// Wrap the destination receiver to count arrivals into bins: the
	// endpoint demux already delivers to per-flow receivers, so count at
	// the node level via a tap on the shared link's delivery side.
	shared.AttachTap(netsim.TapFunc(func(now float64, p *packet.Packet, dir netsim.Direction) netsim.TapVerdict {
		if dir == netsim.AToB && p.TCP != nil && p.Size > 60 {
			agg.Values[agg.Index(now)] += 1 / bin
		}
		return netsim.TapVerdict{}
	}))

	nw.RunUntil(cfg.Duration)

	lateFrom := cfg.Duration * 2 / 3
	var lateMean stats.Summary
	for _, f := range flows {
		var rates []float64
		for _, r := range f.Records() {
			if r.Start >= lateFrom {
				rates = append(rates, r.Rate)
			}
		}
		out := FlowOutcome{FinalEps: f.Eps(), FinalState: f.State()}
		for _, r := range f.Records() {
			if r.Eps > out.MaxEps {
				out.MaxEps = r.Eps
			}
		}
		if len(rates) > 0 {
			mean := stats.Mean(rates)
			out.MeanRateLate = mean
			lo, hi := rates[0], rates[0]
			for _, r := range rates {
				lo = math.Min(lo, r)
				hi = math.Max(hi, r)
			}
			if mean > 0 {
				out.OscAmplitude = (hi - lo) / mean
			}
			lateMean.Add(mean)
		}
		res.Flows = append(res.Flows, out)
	}
	res.MeanRateLate = lateMean.Mean()
	res.Records = flows[0].Records()
	res.AggSeries = agg
	var aggLate stats.Summary
	for i := range agg.Values {
		if agg.Time(i) >= lateFrom {
			aggLate.Add(agg.Values[i])
		}
	}
	res.AggMeanLate = aggLate.Mean()
	if res.AggMeanLate > 0 {
		res.AggCV = aggLate.Stddev() / res.AggMeanLate
	}
	if eq != nil {
		res.DropFraction = eq.DropFraction()
	}
	return res
}
