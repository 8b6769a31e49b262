package blink

import (
	"math"

	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/tcpflow"
)

// FailoverConfig parameterizes the legitimate-operation experiment: Blink
// doing the job it was designed for, with real (closed-loop) TCP flows and
// a genuine link failure. It establishes the baseline the attack then
// subverts, and produces the genuine retransmission-timing signal the §5
// supervisor learns from.
type FailoverConfig struct {
	Blink Config
	Flows int
	// FailAt cuts the primary path at this time; 0 disables the failure.
	FailAt   float64
	Duration float64
	// Hook, if set, runs after the pipeline is built (supervisor
	// installation point).
	Hook func(p *Pipeline)
	// Chaos, if set, receives the built topology after routing converges
	// and before any flow starts — the fault-injection point
	// (internal/faults). Nil leaves the run bit-identical to a chaos-free
	// one.
	Chaos func(t Topo)
}

// Topo names the links of a Blink experiment's topology that fault plans
// target: the sender's uplink into the Blink router and the two hops of
// the primary path to the victim. RunFailover and RunHijack pass it to
// their Chaos hooks.
type Topo struct {
	Net          *netsim.Network
	Uplink       *netsim.Link // sender (or ingress) – Blink router
	PrimaryTrunk *netsim.Link // Blink router – primary next hop
	PrimaryTail  *netsim.Link // primary next hop – victim
}

// Defaults fills a representative configuration.
func (c FailoverConfig) Defaults() FailoverConfig {
	c.Blink = c.Blink.Defaults()
	if c.Flows <= 0 {
		c.Flows = 150
	}
	if c.Duration <= 0 {
		c.Duration = 60
	}
	return c
}

// FailoverResult reports Blink's reaction to a real failure.
type FailoverResult struct {
	Config      FailoverConfig
	FailureAt   float64
	Rerouted    bool
	RerouteTime float64
	// DetectionLatency is reroute time minus failure time — Blink's
	// headline metric (sub-second recovery without BGP convergence).
	DetectionLatency float64
	// FalseReroute is true when a reroute happened with no failure
	// injected (must stay false in the clean run).
	FalseReroute bool
	// RecoveredFlows counts flows that delivered new data after the
	// reroute.
	RecoveredFlows int
	// RetransGaps are the observed retransmission gaps (supervisor
	// training/eval signal).
	RetransGaps []float64
	// SRTTs are the flows' smoothed RTTs at the end of the run.
	SRTTs []float64
	// VetoedReroutes counts failovers a supervisor blocked.
	VetoedReroutes int
}

// RunFailover builds sender ── rBlink ──(primary rGood | backup rAlt)──
// victim, starts cfg.Flows real TCP flows, optionally cuts the
// rGood–victim link, and reports Blink's reaction.
func RunFailover(cfg FailoverConfig) *FailoverResult {
	cfg = cfg.Defaults()
	res := &FailoverResult{Config: cfg, FailureAt: cfg.FailAt, RerouteTime: math.NaN(), DetectionLatency: math.NaN()}

	nw := netsim.New()
	sender := nw.AddHost("sender", packet.MustParseAddr("20.1.0.1"))
	rBlink := nw.AddRouter("rBlink")
	rGood := nw.AddRouter("rGood")
	rAlt := nw.AddRouter("rAlt")
	victim := nw.AddHost("victim", Victim.Nth(1))
	lUp := nw.Connect(sender, rBlink, 0, 0.002, 0)
	lTrunk := nw.Connect(rBlink, rGood, 0, 0.01, 0)
	nw.Connect(rBlink, rAlt, 0, 0.015, 0)
	lGood := nw.Connect(rGood, victim, 0, 0.01, 0)
	nw.Connect(rAlt, victim, 0, 0.015, 0)
	nw.Announce(victim, Victim)
	nw.ComputeRoutes()
	// Return traffic is pinned through rAlt: the failure under study is
	// on the forward path only (Blink targets remote, often asymmetric,
	// outages — if the reverse path died with it, no signal could reach
	// anyone).
	victim.AddRoute(packet.Prefix{Addr: sender.Addr, Bits: 32}, rAlt)

	pipe := NewPipeline(rBlink, cfg.Blink, PrefixPolicy{
		Prefix:   Victim,
		NextHops: []*netsim.Node{rGood, rAlt},
	})
	if cfg.Hook != nil {
		cfg.Hook(pipe)
	}
	rBlink.AttachProgram(pipe)
	pipe.Bank().OnRetrans(func(_ int, ev RetransEvent) {
		res.RetransGaps = append(res.RetransGaps, ev.Gap)
	})
	if cfg.Chaos != nil {
		cfg.Chaos(Topo{Net: nw, Uplink: lUp, PrimaryTrunk: lTrunk, PrimaryTail: lGood})
	}

	se := tcpflow.NewEndpoint(sender)
	ve := tcpflow.NewEndpoint(victim)
	senders := make([]*tcpflow.Sender, cfg.Flows)
	for i := range senders {
		key := packet.FlowKey{
			Src: sender.Addr, Dst: victim.Addr,
			SrcPort: uint16(2000 + i), DstPort: 443, Proto: packet.ProtoTCP,
		}
		senders[i] = tcpflow.Start(se, ve, tcpflow.Config{Key: key, Window: 2, Pace: 4})
	}

	if cfg.FailAt > 0 {
		nw.FailLink(lGood, cfg.FailAt)
	}
	ackedAtReroute := make([]int64, cfg.Flows)
	pipe.OnReroute = func(ev Reroute) {
		for i, s := range senders {
			ackedAtReroute[i] = s.Stats().AckedBytes
		}
	}
	nw.RunUntil(cfg.Duration)

	if rr := pipe.Reroutes(); len(rr) > 0 {
		res.Rerouted = true
		res.RerouteTime = rr[0].Now
		if cfg.FailAt > 0 {
			res.DetectionLatency = rr[0].Now - cfg.FailAt
		} else {
			res.FalseReroute = true
		}
		for i, s := range senders {
			if s.Stats().AckedBytes > ackedAtReroute[i] {
				res.RecoveredFlows++
			}
		}
	}
	for _, s := range senders {
		res.SRTTs = append(res.SRTTs, s.Stats().SRTT)
	}
	res.VetoedReroutes = pipe.VetoedReroutes
	return res
}
