package netsim

import (
	"fmt"

	"dui/internal/graph"
	"dui/internal/packet"
)

// DropHandler observes queue drops, the signal congestion controllers react
// to indirectly (through missing ACKs) and experiments count directly.
type DropHandler func(now float64, p *packet.Packet, l *Link, dir Direction)

// Network assembles nodes and links on top of an Engine and provides
// topology-wide operations: route computation and operator-level control.
type Network struct {
	eng           *Engine
	nodes         []*Node
	links         []*Link
	byAddr        map[packet.Addr]*Node
	nextID        uint64
	onDrop        DropHandler
	linkProbe     LinkProbe
	routerIP      uint32
	announcements []announcement
	onTeardown    []func()
	tornDown      bool
}

// New returns an empty network on a fresh engine.
func New() *Network {
	return &Network{
		eng:    NewEngine(),
		byAddr: map[packet.Addr]*Node{},
		// Router loopbacks from the TEST-NET-1 192.0.2.0/24 block.
		routerIP: uint32(packet.MustParseAddr("192.0.2.1")),
	}
}

// Engine returns the event engine (for scheduling application events).
func (nw *Network) Engine() *Engine { return nw.eng }

// Now returns the current virtual time.
func (nw *Network) Now() float64 { return nw.eng.Now() }

// RunUntil advances the simulation to time t.
func (nw *Network) RunUntil(t float64) int { return nw.eng.RunUntil(t) }

// OnDrop installs a global queue-drop observer.
func (nw *Network) OnDrop(h DropHandler) { nw.onDrop = h }

func (nw *Network) notifyDrop(p *packet.Packet, l *Link, dir Direction) {
	if nw.onDrop != nil {
		nw.onDrop(nw.eng.Now(), p, l, dir)
	}
}

// SetLinkProbe installs a network-wide observer of link events (at most
// one; nil removes it). The probe is the hook internal/audit attaches its
// invariant checker and event tracer to; with no probe installed the only
// per-event cost is a nil check.
func (nw *Network) SetLinkProbe(p LinkProbe) { nw.linkProbe = p }

func (nw *Network) probeLink(kind LinkEventKind, l *Link, dir Direction, p *packet.Packet) {
	if nw.linkProbe != nil {
		nw.linkProbe(nw.eng.Now(), kind, l, dir, p)
	}
}

// AddHost adds a host with the given address.
func (nw *Network) AddHost(name string, addr packet.Addr) *Node {
	n := &Node{net: nw, id: len(nw.nodes), name: name, kind: Host, Addr: addr}
	nw.nodes = append(nw.nodes, n)
	if _, dup := nw.byAddr[addr]; dup {
		panic("netsim: duplicate host address " + addr.String())
	}
	nw.byAddr[addr] = n
	return n
}

// AddRouter adds a router; its loopback address is auto-assigned from
// 192.0.2.0/24 and answers traceroute probes.
func (nw *Network) AddRouter(name string) *Node {
	addr := packet.Addr(nw.routerIP)
	nw.routerIP++
	n := &Node{
		net: nw, id: len(nw.nodes), name: name, kind: Router, Addr: addr,
		GenerateTTLExceeded: true,
	}
	nw.nodes = append(nw.nodes, n)
	nw.byAddr[addr] = n
	return n
}

// Nodes returns all nodes in creation order.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// NodeByAddr returns the node owning addr, or nil.
func (nw *Network) NodeByAddr(a packet.Addr) *Node { return nw.byAddr[a] }

// NodeByName returns the first node with the given name, or nil.
func (nw *Network) NodeByName(name string) *Node {
	for _, n := range nw.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// Connect adds a link between two nodes. rateBps 0 means infinite
// bandwidth, delay is one-way propagation seconds, queueCap 0 means an
// unbounded queue.
func (nw *Network) Connect(a, b *Node, rateBps, delay float64, queueCap int) *Link {
	if a.net != nw || b.net != nw {
		panic("netsim: connecting foreign nodes")
	}
	l := &Link{net: nw, a: a, b: b, idx: len(nw.links), RateBps: rateBps, Delay: delay, QueueCap: queueCap, up: true}
	l.initLanes()
	nw.links = append(nw.links, l)
	a.links = append(a.links, l)
	b.links = append(b.links, l)
	return l
}

// Links returns all links in creation order.
func (nw *Network) Links() []*Link { return nw.links }

// assignID stamps a unique packet ID.
func (nw *Network) assignID(p *packet.Packet) {
	if p.ID == 0 {
		nw.nextID++
		p.ID = nw.nextID
	}
}

// Graph renders the current topology as a graph with link delay as edge
// weight (plus a small constant so zero-delay links still prefer fewer
// hops).
func (nw *Network) Graph() *graph.Graph {
	g := &graph.Graph{}
	for _, n := range nw.nodes {
		if id := g.AddNode(n.name); int(id) != n.id {
			panic("netsim: node id mismatch")
		}
	}
	for _, l := range nw.links {
		if !l.up {
			continue
		}
		w := l.Delay + 1e-6
		g.AddBiEdge(graph.NodeID(l.a.id), graph.NodeID(l.b.id), w)
	}
	return g
}

// Announce records that node n owns pfx, for use by ComputeRoutes. A /32
// for each host address is announced implicitly.
func (nw *Network) Announce(n *Node, pfx packet.Prefix) {
	nw.announcements = append(nw.announcements, announcement{n, pfx})
}

type announcement struct {
	node *Node
	pfx  packet.Prefix
}

// ComputeRoutes installs static shortest-path routes for every announced
// prefix and every node address, like an IGP at convergence. It overwrites
// same-prefix routes but preserves other manually installed ones.
func (nw *Network) ComputeRoutes() {
	g := nw.Graph()
	dests := make([]announcement, 0, len(nw.announcements)+len(nw.nodes))
	dests = append(dests, nw.announcements...)
	for _, n := range nw.nodes {
		// Auto-announce a host /32 unless the node already announces a
		// covering prefix: a more-specific auto-route would shadow
		// policy routes (e.g. Blink's per-prefix failover) installed for
		// the announced prefix.
		covered := false
		for _, a := range nw.announcements {
			if a.node == n && a.pfx.Contains(n.Addr) {
				covered = true
				break
			}
		}
		if !covered {
			dests = append(dests, announcement{n, packet.Prefix{Addr: n.Addr, Bits: 32}})
		}
	}
	for _, src := range nw.nodes {
		tree := g.Dijkstra(graph.NodeID(src.id))
		for _, d := range dests {
			if d.node == src {
				continue
			}
			if hop, ok := tree.FirstHop(graph.NodeID(d.node.id)); ok {
				src.AddRoute(d.pfx, nw.nodes[hop], nil)
			}
		}
	}
}

// OnTeardown registers fn to run when the network is torn down. Multiple
// callbacks run in registration order. Auditors use this to schedule their
// drain-time checks at the scenario's end of life without the experiment
// driver having to know which auditors are attached.
func (nw *Network) OnTeardown(fn func()) {
	nw.onTeardown = append(nw.onTeardown, fn)
}

// Teardown marks the end of the network's life and runs the registered
// teardown callbacks, once; later calls are no-ops. The network remains
// inspectable afterwards (stats, occupancy, topology), but a scenario
// should not schedule further traffic.
func (nw *Network) Teardown() {
	if nw.tornDown {
		return
	}
	nw.tornDown = true
	for _, fn := range nw.onTeardown {
		fn()
	}
}

// FailLink schedules the link between nodes a and b to go down at time t —
// the ground-truth outage events the Blink experiments use. The failure
// flushes both direction queues (see Link.SetUp); only packets already on
// the wire at t are still delivered.
func (nw *Network) FailLink(l *Link, t float64) {
	nw.eng.At(t, func() { l.SetUp(false) })
}

// String summarizes the network for debugging.
func (nw *Network) String() string {
	return fmt.Sprintf("netsim.Network{%d nodes, %d links, t=%.3fs}", len(nw.nodes), len(nw.links), nw.eng.Now())
}
