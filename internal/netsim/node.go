package netsim

import (
	"slices"

	"dui/internal/packet"
)

// NodeKind distinguishes traffic endpoints from forwarding devices.
type NodeKind int

// Node kinds.
const (
	Host NodeKind = iota
	Router
)

// Receiver consumes packets delivered to a host. Hosts demultiplex flows
// themselves (the tcpflow package keys on the 5-tuple).
type Receiver interface {
	Receive(now float64, p *packet.Packet)
}

// ReceiverFunc adapts a function to Receiver.
type ReceiverFunc func(now float64, p *packet.Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(now float64, p *packet.Packet) { f(now, p) }

// Program is a data-plane program running on a router — the "driver" of a
// data-driven network in the paper's terms (Blink is one). It observes
// every packet the router forwards and may act on the router through the
// *Node it was attached to (e.g., rewrite routes).
type Program interface {
	// OnPacket is called for each packet the router processes, before the
	// routing lookup. Returning false drops the packet.
	OnPacket(now float64, p *packet.Packet, node *Node) bool
}

// NodeStats counts per-node activity.
type NodeStats struct {
	Received    uint64 // packets delivered to this node (host) or arriving (router)
	Forwarded   uint64
	NoRoute     uint64
	TTLExpired  uint64
	ProgramDrop uint64
}

// Node is a host or router in the simulated network.
type Node struct {
	net  *Network
	id   int
	name string
	kind NodeKind

	// Addr is the node's own address: the host address, or the router's
	// loopback used as the source of ICMP errors (what traceroute sees).
	Addr packet.Addr

	links    []*Link
	routes   []route
	receiver Receiver
	programs []Program
	stats    NodeStats

	// GenerateTTLExceeded controls whether this router answers TTL expiry
	// with ICMP time-exceeded (real routers may rate-limit or disable
	// this; NetHide interposes on it).
	GenerateTTLExceeded bool
}

type route struct {
	prefix  packet.Prefix
	nexthop *Node
	via     *Link
}

// ID returns the node's dense index within its network.
func (n *Node) ID() int { return n.id }

// Name returns the display name.
func (n *Node) Name() string { return n.name }

// Kind returns Host or Router.
func (n *Node) Kind() NodeKind { return n.kind }

// Net returns the owning network.
func (n *Node) Net() *Network { return n.net }

// Stats returns a copy of the node counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Links returns the attached links. The slice is owned by the node.
func (n *Node) Links() []*Link { return n.links }

// SetReceiver installs the host's packet consumer.
func (n *Node) SetReceiver(r Receiver) { n.receiver = r }

// AttachProgram installs a data-plane program on a router. Programs run in
// attachment order.
func (n *Node) AttachProgram(p Program) { n.programs = append(n.programs, p) }

// AddRoute installs prefix → next hop. The route replaces any existing
// route for exactly the same prefix. via must be a link attaching n to
// nexthop; pass nil to auto-select the first such link.
func (n *Node) AddRoute(pfx packet.Prefix, nexthop *Node, via *Link) {
	if via == nil {
		for _, l := range n.links {
			if l.Peer(n) == nexthop {
				via = l
				break
			}
		}
		if via == nil {
			panic("netsim: no link to next hop " + nexthop.name)
		}
	}
	for i := range n.routes {
		if n.routes[i].prefix == pfx {
			n.routes[i].nexthop = nexthop
			n.routes[i].via = via
			return
		}
	}
	// Longest prefix first, insertion order among equal lengths: the new
	// route goes after every route at least as long.
	i := len(n.routes)
	for i > 0 && n.routes[i-1].prefix.Bits < pfx.Bits {
		i--
	}
	n.routes = slices.Insert(n.routes, i, route{prefix: pfx, nexthop: nexthop, via: via})
}

// Lookup returns the next hop for dst, or nil if no route matches.
func (n *Node) Lookup(dst packet.Addr) (*Node, *Link) {
	for _, r := range n.routes {
		if r.prefix.Contains(dst) {
			return r.nexthop, r.via
		}
	}
	return nil, nil
}

// NextHop returns just the next-hop node for dst (nil if unrouted); it is
// the observable the Blink experiments assert on.
func (n *Node) NextHop(dst packet.Addr) *Node {
	nh, _ := n.Lookup(dst)
	return nh
}

// Send originates a packet from this node: the host privilege level. The
// source address is whatever the caller set — compromised hosts spoof
// freely, as §3.1 notes ("the attacker does not need to establish TCP
// connections with the victim network").
func (n *Node) Send(p *packet.Packet) {
	n.net.assignID(p)
	n.dispatch(p, nil)
}

// receive handles a packet arriving from a link.
func (n *Node) receive(p *packet.Packet, from *Link) {
	n.stats.Received++
	if n.Addr == p.Dst {
		if n.receiver != nil {
			n.receiver.Receive(n.net.eng.Now(), p)
		}
		return
	}
	if n.kind == Host {
		// Hosts do not forward transit traffic.
		return
	}
	n.dispatch(p, from)
}

// dispatch runs data-plane programs, TTL handling, and the routing lookup.
func (n *Node) dispatch(p *packet.Packet, from *Link) {
	now := n.net.eng.Now()
	for _, prog := range n.programs {
		if !prog.OnPacket(now, p, n) {
			n.stats.ProgramDrop++
			return
		}
	}
	if from != nil { // only decrement when transiting a device
		if p.TTL <= 1 {
			n.stats.TTLExpired++
			n.ttlExceeded(p)
			return
		}
		p.TTL--
	}
	nh, via := n.Lookup(p.Dst)
	if nh == nil {
		n.stats.NoRoute++
		return
	}
	n.stats.Forwarded++
	via.send(n, p)
}

// ttlExceeded emits the ICMP time-exceeded reply that traceroute depends
// on (§4.3): sourced from the router's own address, quoting the expired
// probe.
func (n *Node) ttlExceeded(expired *packet.Packet) {
	if !n.GenerateTTLExceeded {
		return
	}
	if expired.ICMP != nil && expired.ICMP.Type == packet.ICMPTimeExceeded {
		return // never answer an ICMP error with another error
	}
	var id, seq uint16
	if expired.UDP != nil {
		id, seq = expired.UDP.SrcPort, expired.UDP.DstPort
	} else if expired.ICMP != nil {
		id, seq = expired.ICMP.ID, expired.ICMP.Seq
	}
	reply := packet.NewICMP(n.Addr, expired.Src, packet.ICMPHeader{
		Type: packet.ICMPTimeExceeded, ID: id, Seq: seq,
		OrigSrc: expired.Src, OrigDst: expired.Dst, OrigTTL: expired.TTL,
	}, 56)
	n.Send(reply)
}
