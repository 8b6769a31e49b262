package blink

import (
	"math"

	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
	"dui/internal/trace"
)

// programFunc adapts a function to netsim.Program.
type programFunc func(now float64, p *packet.Packet, n *netsim.Node) bool

// OnPacket implements netsim.Program.
func (f programFunc) OnPacket(now float64, p *packet.Packet, n *netsim.Node) bool {
	return f(now, p, n)
}

// PlayStream replays a trace stream into the network from a host node,
// scheduling each packet at its stream time on the network's engine. It is
// how both the legitimate background workload and the §3.1 host-level
// attacker enter a netsim experiment: the attacker "does not need to
// establish TCP connections with the victim network" — it just emits
// crafted (spoofed) packets from hosts it controls.
//
// The stream's packets go through one netsim.Lane, which holds at most
// the next packet: a send costs a ring-buffer slot instead of a closure,
// and the lane executes each packet exactly where Engine.At would have.
func PlayStream(nw *netsim.Network, from *netsim.Node, st trace.Stream) {
	var ln *netsim.Lane
	pump := func() {
		ev, ok := st.Next()
		if !ok {
			return
		}
		// The network retains packets (link queues, MitM taps, delayed
		// delivery) past the stream's next Next(), so take ownership of a
		// copy — the Stream packet-lifetime rule — drawn from the
		// network's free list.
		ln.Push(ev.Time, netsim.LaneEntry{P: nw.CloneTCP(ev.Pkt)})
	}
	ln = nw.Engine().NewLane(func(en netsim.LaneEntry) {
		from.Send(en.P)
		pump()
	})
	pump()
}

// hijackMeanFlowDuration is the E3 legitimate exponential mean flow
// duration in seconds.
const hijackMeanFlowDuration float64 = 6

// HijackConfig parameterizes the E3 end-to-end hijack experiment.
type HijackConfig struct {
	Blink Config
	// LegitFlows is the concurrent legitimate population, MalFlows the
	// attacker pool sending MalPPS packets per second per flow.
	LegitFlows, MalFlows int
	MalPPS               float64
	// TriggerAt is when the attacker starts the fake retransmission
	// storm (she waits for her flows to dominate the sample).
	TriggerAt float64
	Duration  float64
	Seed      uint64
	// MimicRTO makes the storm's packet pacing imitate genuine RTO
	// backoff (the adaptive attacker of the §5 discussion).
	MimicRTO bool
	// Hook, if set, runs after the pipeline is built — the place to
	// install a §5 supervisor (Veto) before traffic starts.
	Hook func(p *Pipeline)
	// Chaos, if set, runs once routes are computed and before the
	// pipeline is built or traffic starts — the place to install benign
	// faults on the topology (ingress–rBlink uplink, rBlink–rGood trunk,
	// rGood–victim tail).
	Chaos func(t Topo)
}

// Defaults fills a fast-but-representative configuration: a smaller
// population than Fig 2 (the dynamics scale by qm and tR, not by absolute
// counts) and a qm high enough to own the sample before TriggerAt.
func (c HijackConfig) Defaults() HijackConfig {
	c.Blink = c.Blink.Defaults()
	if c.LegitFlows <= 0 {
		c.LegitFlows = 400
	}
	if c.MalFlows <= 0 {
		c.MalFlows = 80 // qm = 0.20 to dominate well before the trigger
	}
	if c.MalPPS <= 0 {
		c.MalPPS = 2
	}
	if c.TriggerAt <= 0 {
		c.TriggerAt = 150
	}
	if c.Duration <= 0 {
		c.Duration = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// HijackResult reports what the attack achieved.
type HijackResult struct {
	Config HijackConfig
	// MaliciousCellsAtTrigger is the attacker's share of the sample when
	// the storm starts.
	MaliciousCellsAtTrigger int
	// Rerouted tells whether Blink switched the victim prefix to the
	// attacker-controlled backup, and when.
	Rerouted    bool
	RerouteTime float64
	// Detection latency: reroute time minus trigger time.
	Latency float64
	// HijackedPackets counts victim-destined packets that crossed the
	// attacker's router after the reroute.
	HijackedPackets uint64
	// VetoedReroutes counts failovers a supervisor blocked.
	VetoedReroutes int
}

// RunHijack builds the E3 topology and runs the attack end to end:
//
//	ingress ── rBlink ──(primary)── rGood ── victim
//	               └────(backup)─── rEvil ── victim
//
// Legitimate traffic and the attacker's crafted flows enter at ingress.
// Blink on rBlink monitors the victim prefix with rGood as primary and
// rEvil — a path the attacker controls — as backup. When the attacker's
// flows dominate the sample she fakes a retransmission storm; Blink infers
// a failure of the (perfectly healthy) primary and moves the prefix onto
// the attacker's path.
func RunHijack(cfg HijackConfig) *HijackResult {
	cfg = cfg.Defaults()
	rng := stats.NewRNG(cfg.Seed)
	res := &HijackResult{Config: cfg}

	nw := netsim.New()
	ingress := nw.AddHost("ingress", LegitSrcBase-1)
	rBlink := nw.AddRouter("rBlink")
	rGood := nw.AddRouter("rGood")
	rEvil := nw.AddRouter("rEvil")
	victim := nw.AddHost("victim", Victim.Nth(1))
	lUp := nw.Connect(ingress, rBlink, 0, 0.001, 0)
	lTrunk := nw.Connect(rBlink, rGood, 0, 0.005, 0)
	nw.Connect(rBlink, rEvil, 0, 0.005, 0)
	lTail := nw.Connect(rGood, victim, 0, 0.005, 0)
	nw.Connect(rEvil, victim, 0, 0.005, 0)
	nw.Announce(victim, Victim)
	nw.ComputeRoutes()
	if cfg.Chaos != nil {
		cfg.Chaos(Topo{Net: nw, Uplink: lUp, PrimaryTrunk: lTrunk, PrimaryTail: lTail})
	}

	pipe := NewPipeline(rBlink, cfg.Blink, PrefixPolicy{
		Prefix:   Victim,
		NextHops: []*netsim.Node{rGood, rEvil},
	})
	if cfg.Hook != nil {
		cfg.Hook(pipe)
	}
	rBlink.AttachProgram(pipe)

	// Count victim traffic crossing the attacker's router.
	rEvil.AttachProgram(programFunc(func(now float64, p *packet.Packet, n *netsim.Node) bool {
		if Victim.Contains(p.Dst) {
			res.HijackedPackets++
		}
		return true
	}))

	legit := trace.NewLegit(trace.LegitConfig{
		Victim: Victim, Flows: cfg.LegitFlows,
		Dur: trace.ExpDuration{MeanSec: hijackMeanFlowDuration}, PPS: legitPPS,
		Until: cfg.Duration, SrcBase: LegitSrcBase,
	}, rng.Child())
	mal := trace.NewMalicious(trace.MaliciousConfig{
		Victim: Victim, Flows: cfg.MalFlows, PPS: cfg.MalPPS,
		Until: cfg.Duration, SrcBase: MalSrcBase,
		RetransmitFrom: cfg.TriggerAt,
		MimicRTO:       cfg.MimicRTO,
	}, rng.Child())
	PlayStream(nw, ingress, trace.Merge(legit, mal))

	nw.Engine().At(cfg.TriggerAt, func() {
		res.MaliciousCellsAtTrigger = pipe.Bank().CountOccupied(0, IsMaliciousSrc)
	})
	nw.RunUntil(cfg.Duration)

	if rr := pipe.Reroutes(); len(rr) > 0 {
		res.Rerouted = true
		res.RerouteTime = rr[0].Now
		res.Latency = rr[0].Now - cfg.TriggerAt
	} else {
		res.RerouteTime = math.NaN()
		res.Latency = math.NaN()
	}
	res.VetoedReroutes = pipe.VetoedReroutes
	return res
}
