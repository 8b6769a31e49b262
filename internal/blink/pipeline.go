package blink

import (
	"dui/internal/netsim"
	"dui/internal/packet"
)

// PrefixPolicy configures one monitored prefix on a Blink router: the
// prefix and its next hops in preference order (index 0 is the primary
// path; later entries are the backups Blink fails over to).
type PrefixPolicy struct {
	Prefix   packet.Prefix
	NextHops []*netsim.Node
}

// Reroute records one failover decision taken by the pipeline.
type Reroute struct {
	Now    float64
	Prefix packet.Prefix
	From   *netsim.Node
	To     *netsim.Node
}

// Pipeline is Blink as a netsim data-plane program for one monitored
// prefix: a one-prefix monitor bank plus the reroute action. Attach it to
// a router with AttachProgram; it installs the primary route at
// construction. A router monitors several prefixes by attaching one
// Pipeline per prefix (netsim runs a node's programs in order), so each
// pipeline's observers and Veto see only their own prefix.
type Pipeline struct {
	node     *netsim.Node
	bank     *MonitorBank
	policy   PrefixPolicy
	current  int // index of the active next hop
	reroutes []Reroute

	// OnReroute, if set, observes failover decisions.
	OnReroute func(Reroute)

	// Veto, if set, is consulted before a failover is executed — the
	// §5 supervisor's hook (countermeasure IV: "invoking supervisor
	// checks"). Returning true blocks the reroute; inference re-arms at
	// the next sample reset.
	Veto func(r Reroute) bool

	// VetoedReroutes counts blocked failovers.
	VetoedReroutes int
}

// NewPipeline builds the program, creates its one-prefix bank, and
// installs the policy's primary route on node.
func NewPipeline(node *netsim.Node, cfg Config, policy PrefixPolicy) *Pipeline {
	if len(policy.NextHops) == 0 {
		panic("blink: policy needs at least one next hop")
	}
	p := &Pipeline{node: node, bank: NewMonitorBank(1, cfg), policy: policy}
	node.AddRoute(policy.Prefix, policy.NextHops[0])
	p.bank.OnFailure(p.failover)
	return p
}

// Bank returns the pipeline's one-prefix monitor bank, for metric
// collection and observers.
func (p *Pipeline) Bank() *MonitorBank { return p.bank }

// Reroutes returns all failover decisions so far.
func (p *Pipeline) Reroutes() []Reroute { return p.reroutes }

// OnPacket implements netsim.Program: feed TCP packets toward the
// monitored prefix into the bank. Blink never drops traffic.
func (p *Pipeline) OnPacket(now float64, pkt *packet.Packet, node *netsim.Node) bool {
	if pkt.TCP != nil && p.policy.Prefix.Contains(pkt.Dst) {
		p.bank.Feed(0, now, pkt)
	}
	return true
}

// Restart models a crash/restart of the router running the pipeline: all
// monitor state is lost (MonitorBank.Restart) and the prefix falls back to
// its primary next hop — what a rebooted device loads from its startup
// config. Reroute history, veto counts, and registered hooks survive; they
// belong to the experiment harness, not router RAM.
func (p *Pipeline) Restart(now float64) {
	p.bank.Restart(0, now)
	p.current = 0
	p.node.AddRoute(p.policy.Prefix, p.policy.NextHops[0])
}

// failover advances the prefix to its next backup next hop and rewrites
// the route — Blink's fast-reroute action, and the lever the §3.1
// attacker pulls.
func (p *Pipeline) failover(_ int, now float64) {
	hops := p.policy.NextHops
	if p.current+1 >= len(hops) {
		return // no backup left
	}
	ev := Reroute{Now: now, Prefix: p.policy.Prefix, From: hops[p.current], To: hops[p.current+1]}
	if p.Veto != nil && p.Veto(ev) {
		p.VetoedReroutes++
		return
	}
	p.current++
	p.node.AddRoute(p.policy.Prefix, ev.To)
	p.reroutes = append(p.reroutes, ev)
	if p.OnReroute != nil {
		p.OnReroute(ev)
	}
}
