package scenario

import (
	"fmt"
	"math"

	"dui/internal/audit"
	"dui/internal/blink"
	"dui/internal/faults"
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
	"dui/internal/trace"
)

// Built is a scenario realized on a netsim.Network with the full audit
// stack attached: the conservation checker and the event-trace digest
// (audit.NewDigestRecorder — count and hash, no retained trace) on every
// link, the selector auditor and reroute-threshold oracle on the Blink
// pipeline (when deployed), and the drain check registered for teardown.
type Built struct {
	Net      *netsim.Network
	NetAudit *audit.NetAudit
	Recorder *audit.Recorder
	// Pipe and MonAudit are nil when the scenario deploys no Blink.
	Pipe     *blink.Pipeline
	MonAudit *audit.MonAudit

	scn     *Scenario
	nodes   []*netsim.Node
	reroute *rerouteOracle
}

// foreverDur makes legit flows outlive the workload (MeanDur == 0): the
// population never renews, matching a stable long-lived flow set.
type foreverDur struct{}

func (foreverDur) Sample(*stats.RNG) float64 { return math.Inf(1) }
func (foreverDur) Mean() float64             { return math.Inf(1) }
func (foreverDur) String() string            { return "forever" }

// Build realizes the scenario. It panics on an invalid scenario — callers
// go through Run, which Validates first (and converts panics from deeper
// construction, e.g. a disconnected Blink next hop, into violations).
func Build(s *Scenario) *Built {
	if err := s.Validate(); err != nil {
		panic("scenario: " + err.Error())
	}
	b := &Built{scn: s}
	nw := netsim.New()
	b.Net = nw

	for i, ns := range s.Nodes {
		if ns.Router {
			b.nodes = append(b.nodes, nw.AddRouter(ns.Name))
		} else {
			h := nw.AddHost(ns.Name, HostAddr(i))
			nw.Announce(h, HostPrefix(i))
			b.nodes = append(b.nodes, h)
		}
	}
	for _, ls := range s.Links {
		nw.Connect(b.nodes[ls.A], b.nodes[ls.B], ls.RateBps, ls.Delay, ls.QueueCap)
	}
	nw.ComputeRoutes()

	// The audit stack attaches before any traffic is scheduled so the
	// shadow counters and the trace see every event from t=0.
	b.Recorder = audit.NewDigestRecorder()
	b.NetAudit = audit.AttachNetwork(nw, b.Recorder)
	nw.OnTeardown(func() { _ = b.NetAudit.CheckDrained() })

	if bs := s.Blink; bs != nil {
		hops := make([]*netsim.Node, len(bs.NextHops))
		for i, nh := range bs.NextHops {
			hops[i] = b.nodes[nh]
		}
		cfg := blink.Config{Cells: bs.Cells}
		b.Pipe = blink.NewPipeline(b.nodes[bs.Router], cfg, blink.PrefixPolicy{
			Prefix:   HostPrefix(bs.Victim),
			NextHops: hops,
		})
		b.nodes[bs.Router].AttachProgram(b.Pipe)
		b.MonAudit = audit.AttachMonitor(b.Pipe.Bank(), b.Recorder)
		b.reroute = attachRerouteOracle(b.Pipe)
	}

	for ti := range s.Taps {
		b.buildTap(ti)
	}
	for wi, w := range s.Workloads {
		b.buildWorkload(wi, w)
	}
	eng := nw.Engine()
	for _, f := range s.Failures {
		l := nw.Links()[f.Link]
		down := f.DownAt
		eng.At(down, func() { l.SetUp(false) })
		if f.UpAt > 0 {
			up := f.UpAt
			eng.At(up, func() { l.SetUp(true) })
		}
	}
	b.buildFaults()
	return b
}

// buildFaults wires the fault plane: gray processes composed per link
// (faults.Multi — a link has one fault slot), flap/degrade/crash
// schedules on the engine. RNG stream bases: 3000+i for gray spec i,
// 4000+i for flap spec i — disjoint from workloads (1000+) and taps
// (2000+), so adding fault specs never perturbs existing draws.
func (b *Built) buildFaults() {
	s := b.scn
	if !s.HasFaults() {
		return
	}
	eng := b.Net.Engine()
	links := b.Net.Links()
	perLink := make([][]netsim.LinkFault, len(links))
	for gi, gs := range s.Gray {
		cfg := faults.GrayConfig{
			LossP: gs.LossP, CorruptP: gs.CorruptP, DupP: gs.DupP,
			JitterP: gs.JitterP, Jitter: gs.Jitter,
			From: gs.From, Until: gs.Until,
		}
		if cfg.Until == 0 {
			cfg.Until = s.Duration // the drain always runs fault-free
		}
		g := faults.NewGrayDir(cfg, netsim.Direction(gs.Dir), stats.ChildAt(s.Seed, 3000+uint64(gi)))
		perLink[gs.Link] = append(perLink[gs.Link], g)
	}
	for li, fs := range perLink {
		switch len(fs) {
		case 0:
		case 1:
			links[li].SetFault(fs[0])
		default:
			links[li].SetFault(faults.Multi(fs))
		}
	}
	for fi, fs := range s.Flaps {
		faults.ScheduleFlap(eng, links[fs.Link], faults.FlapConfig{
			Start: fs.Start, End: fs.End,
			MeanDown: fs.MeanDown, MeanUp: fs.MeanUp, MinDwell: fs.MinDwell,
		}, stats.ChildAt(s.Seed, 4000+uint64(fi)))
	}
	for _, ds := range s.Degrades {
		faults.ScheduleDegrade(eng, links[ds.Link], faults.DegradeConfig{
			At: ds.At, Until: ds.Until, Factor: ds.Factor,
		})
	}
	for _, cs := range s.Crashes {
		var onRestart func(float64)
		if s.Blink != nil && cs.Node == s.Blink.Router && b.Pipe != nil {
			pipe := b.Pipe
			onRestart = func(now float64) { pipe.Restart(now) }
		}
		faults.ScheduleCrash(eng, b.nodes[cs.Node], faults.CrashConfig{
			At: cs.At, RestartAt: cs.RestartAt,
		}, onRestart)
	}
}

// buildTap installs tap ti: the intercept function (drops/delays on the
// configured direction only) and, if configured, the injection pump that
// originates spoofed packets through the tap's injector.
func (b *Built) buildTap(ti int) {
	ts := b.scn.Taps[ti]
	l := b.Net.Links()[ts.Link]
	dir := netsim.Direction(ts.Dir)
	rng := stats.ChildAt(b.scn.Seed, 2000+uint64(ti))
	inj := l.AttachTap(netsim.TapFunc(func(now float64, p *packet.Packet, d netsim.Direction) netsim.TapVerdict {
		if d != dir {
			return netsim.TapVerdict{}
		}
		var v netsim.TapVerdict
		if ts.DropP > 0 && rng.Float64() < ts.DropP {
			v.Drop = true
			return v
		}
		if ts.Delay > 0 && (ts.DelayP <= 0 || rng.Float64() < ts.DelayP) {
			v.Delay = ts.Delay
		}
		return v
	}))

	if ts.InjectPPS <= 0 {
		return
	}
	until := ts.InjectUntil
	if until == 0 {
		until = b.scn.Duration
	}
	period := 1 / ts.InjectPPS
	src := packet.MakeAddr(40, byte(ti), 0, 1)
	dst := HostAddr(ts.InjectTo)
	eng := b.Net.Engine()
	seq := uint32(0)
	var pump func(t float64)
	pump = func(t float64) {
		if t > until {
			return
		}
		eng.At(t, func() {
			p := b.Net.NewTCP(src, dst, packet.TCPHeader{
				SrcPort: 4444, DstPort: 443, Seq: seq, Flags: packet.FlagACK,
			}, 512)
			seq += 512
			inj.Inject(p, dir)
			pump(t + period)
		})
	}
	pump(period)
}

// buildWorkload schedules workload wi from its entry host.
func (b *Built) buildWorkload(wi int, w WorkloadSpec) {
	rng := stats.ChildAt(b.scn.Seed, 1000+uint64(wi))
	var st trace.Stream
	switch w.Kind {
	case KindLegit:
		var dur trace.DurationDist = foreverDur{}
		if w.MeanDur > 0 {
			dur = trace.ExpDuration{MeanSec: w.MeanDur}
		}
		st = trace.NewLegit(trace.LegitConfig{
			Victim: HostPrefix(w.To), Flows: w.Flows, Dur: dur,
			PPS: w.PPS, Until: w.Until, SrcBase: LegitSrcBase(wi),
		}, rng)
	case KindAttack:
		from := w.RetransmitFrom
		if from < 0 {
			from = math.Inf(1)
		}
		st = trace.NewMalicious(trace.MaliciousConfig{
			Victim: HostPrefix(w.To), Flows: w.Flows, PPS: w.PPS,
			Until: w.Until, SrcBase: AttackSrcBase(wi),
			RetransmitFrom: from, MimicRTO: w.MimicRTO,
		}, rng)
	}
	blink.PlayStream(b.Net, b.nodes[w.From], st)
}

// rerouteOracle is the end-to-end check behind RuleReroute: every failover
// the pipeline executes must be justified by at least Threshold() monitored
// cells with a retransmission inside RetransWindow at decision time —
// the condition Blink's incremental inference is supposed to implement.
// The oracle rebuilds the in-window count from the pipeline's own bank
// event observers, independently of the selector's internal counters.
type rerouteOracle struct {
	threshold  int
	lastRetr   map[int]float64
	violations []audit.Violation
}

func attachRerouteOracle(p *blink.Pipeline) *rerouteOracle {
	m := p.Bank()
	cfg := m.Config()
	o := &rerouteOracle{threshold: cfg.Threshold(), lastRetr: map[int]float64{}}
	m.OnRetrans(func(_ int, ev blink.RetransEvent) { o.lastRetr[ev.Cell] = ev.Now })
	m.OnEvict(func(_ int, ev blink.Eviction) { delete(o.lastRetr, ev.Cell) })
	p.OnReroute = func(r blink.Reroute) {
		n := 0
		for _, t := range o.lastRetr {
			if r.Now-t <= blink.RetransWindow {
				n++
			}
		}
		if n < o.threshold {
			o.violations = append(o.violations, audit.Violation{
				T: r.Now, Rule: RuleReroute,
				Detail: fmt.Sprintf("failover executed with only %d in-window retransmitting cells (threshold %d)", n, o.threshold),
			})
		}
	}
	return o
}
