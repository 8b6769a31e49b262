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

// Pipeline is Blink as a netsim data-plane program: one monitor bank,
// where prefix i monitors policy i, plus the reroute action. Attach it to
// a router with AttachProgram; it installs the primary routes at
// construction.
type Pipeline struct {
	node     *netsim.Node
	bank     *MonitorBank
	policies []PrefixPolicy
	current  []int // per policy: index of the active next hop
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

// NewPipeline builds the program, creates the bank with one prefix per
// policy, and installs each policy's primary route on node.
func NewPipeline(node *netsim.Node, cfg Config, policies []PrefixPolicy) *Pipeline {
	p := &Pipeline{
		node:     node,
		bank:     NewMonitorBank(len(policies), cfg),
		policies: append([]PrefixPolicy(nil), policies...),
		current:  make([]int, len(policies)),
	}
	for _, pol := range policies {
		if len(pol.NextHops) == 0 {
			panic("blink: policy needs at least one next hop")
		}
		node.AddRoute(pol.Prefix, pol.NextHops[0], nil)
	}
	p.bank.OnFailure(p.failover)
	return p
}

// Bank returns the pipeline's monitor bank (prefix i is the i-th policy),
// for metric collection and observers.
func (p *Pipeline) Bank() *MonitorBank { return p.bank }

// Reroutes returns all failover decisions so far.
func (p *Pipeline) Reroutes() []Reroute { return p.reroutes }

// CurrentNextHop returns the active next hop for the i-th policy.
func (p *Pipeline) CurrentNextHop(i int) *netsim.Node {
	return p.policies[i].NextHops[p.current[i]]
}

// OnPacket implements netsim.Program: feed TCP packets toward monitored
// prefixes into the matching prefix of the bank. Blink never drops
// traffic.
func (p *Pipeline) OnPacket(now float64, pkt *packet.Packet, node *netsim.Node) bool {
	if pkt.TCP != nil {
		for i := range p.policies {
			if p.policies[i].Prefix.Contains(pkt.Dst) {
				p.bank.Feed(i, now, pkt)
				break
			}
		}
	}
	return true
}

// Restart models a crash/restart of the router running the pipeline: all
// monitor state is lost (MonitorBank.Restart) and every policy falls back
// to its primary next hop — what a rebooted device loads from its startup
// config. Reroute history, veto counts, and registered hooks survive; they
// belong to the experiment harness, not router RAM.
func (p *Pipeline) Restart(now float64) {
	for i, pol := range p.policies {
		p.bank.Restart(i, now)
		p.current[i] = 0
		p.node.AddRoute(pol.Prefix, pol.NextHops[0], nil)
	}
}

// failover advances policy i to its next backup next hop and rewrites the
// route — Blink's fast-reroute action, and the lever the §3.1 attacker
// pulls.
func (p *Pipeline) failover(i int, now float64) {
	pol := p.policies[i]
	if p.current[i]+1 >= len(pol.NextHops) {
		return // no backup left
	}
	from := pol.NextHops[p.current[i]]
	to := pol.NextHops[p.current[i]+1]
	ev := Reroute{Now: now, Prefix: pol.Prefix, From: from, To: to}
	if p.Veto != nil && p.Veto(ev) {
		p.VetoedReroutes++
		return
	}
	p.current[i]++
	p.node.AddRoute(pol.Prefix, to, nil)
	p.reroutes = append(p.reroutes, ev)
	if p.OnReroute != nil {
		p.OnReroute(ev)
	}
}
