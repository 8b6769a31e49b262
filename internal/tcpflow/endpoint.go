// Package tcpflow is a compact TCP endpoint model for the simulator: a
// window-based sender with RTT estimation, retransmission timeouts with
// exponential backoff, duplicate-ACK fast retransmit, and optional AIMD
// congestion control, plus a cumulative-ACK receiver.
//
// It is deliberately not a full TCP: no handshake state machine, no SACK,
// no reassembly buffers beyond sequence accounting. What matters for the
// paper is that the wire behaviour seen by a data-plane observer is
// faithful — in particular that genuine path failures and congestion
// produce genuine retransmission patterns (Blink's input signal, §3.1),
// with correct RTO dynamics (the defense's plausibility model, §5).
package tcpflow

import (
	"dui/internal/netsim"
	"dui/internal/packet"
)

// Endpoint demultiplexes packets arriving at one host to the flows
// registered on it. Install at most one Endpoint per host node.
type Endpoint struct {
	node     *netsim.Node
	handlers map[packet.FlowKey]netsim.Receiver
}

// NewEndpoint installs a demultiplexer on the host and returns it.
func NewEndpoint(n *netsim.Node) *Endpoint {
	e := &Endpoint{node: n, handlers: map[packet.FlowKey]netsim.Receiver{}}
	n.SetReceiver(e)
	return e
}

// Node returns the host this endpoint lives on.
func (e *Endpoint) Node() *netsim.Node { return e.node }

// Register directs packets matching key (the key of arriving packets, i.e.
// the remote→local direction) to r.
func (e *Endpoint) Register(key packet.FlowKey, r netsim.Receiver) {
	e.handlers[key] = r
}

// Receive implements netsim.Receiver.
func (e *Endpoint) Receive(now float64, p *packet.Packet) {
	if h, ok := e.handlers[p.Flow()]; ok {
		h.Receive(now, p)
	}
}
