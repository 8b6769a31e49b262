// Package conntrack models the per-connection state that stateful
// data-plane applications keep in programmable switches — SilkRoad (Miao
// et al., SIGCOMM'17), a hardware L4 load balancer, is the §3.2 example:
// it pins each connection to a backend (its "DIP") in an exact-match
// table so that backend-pool updates never break established connections.
//
// The paper's observation: "some existing data-plane applications use a
// number of states that scale according to the traffic... As programmable
// switches have limited memory, these applications are more vulnerable to
// DDoS attacks than their software-based counterparts." A SYN flood of
// spoofed 5-tuples fills the table; legitimate connections that cannot
// get an entry fall back to stateless hashing, and the next backend-pool
// update remaps — i.e., breaks — them.
package conntrack

import (
	"container/heap"

	"dui/internal/packet"
	"dui/internal/stats"
)

// Backend identifies a load-balancer target.
type Backend int

// Table is the switch's per-connection state: a capacity-bounded map from
// 5-tuple to backend with idle timeout. The zero value is unusable; use
// NewTable.
type Table struct {
	cap     int
	timeout float64
	entries map[packet.FlowKey]*entry
	idle    idleHeap

	// Inserted/Rejected/Expired count table activity; ProbationEvicted
	// counts entries removed by SweepProbation.
	Inserted, Rejected, Expired, ProbationEvicted uint64
}

type entry struct {
	key      packet.FlowKey
	backend  Backend
	lastSeen float64
	hits     int
	idx      int
}

// NewTable returns a table with the given entry capacity and idle timeout
// (seconds).
func NewTable(capacity int, timeout float64) *Table {
	if capacity <= 0 || timeout <= 0 {
		panic("conntrack: need positive capacity and timeout")
	}
	return &Table{
		cap:     capacity,
		timeout: timeout,
		entries: map[packet.FlowKey]*entry{},
	}
}

// Len returns the current occupancy.
func (t *Table) Len() int { return len(t.entries) }

// Cap returns the entry capacity.
func (t *Table) Cap() int { return t.cap }

// Lookup returns the pinned backend for a connection, refreshing its idle
// timer.
func (t *Table) Lookup(now float64, k packet.FlowKey) (Backend, bool) {
	t.expire(now)
	e, ok := t.entries[k]
	if !ok {
		return 0, false
	}
	e.lastSeen = now
	e.hits++
	heap.Fix(&t.idle, e.idx)
	return e.backend, true
}

// Insert pins a new connection to a backend. It fails when the table is
// full (after expiring idle entries) — the hardware has nowhere to put
// the state.
func (t *Table) Insert(now float64, k packet.FlowKey, b Backend) bool {
	t.expire(now)
	if e, ok := t.entries[k]; ok {
		e.lastSeen = now
		e.backend = b
		e.hits++
		heap.Fix(&t.idle, e.idx)
		return true
	}
	if len(t.entries) >= t.cap {
		t.Rejected++
		return false
	}
	e := &entry{key: k, backend: b, lastSeen: now, hits: 1}
	t.entries[k] = e
	heap.Push(&t.idle, e)
	t.Inserted++
	return true
}

// SweepProbation evicts every entry that was touched at most once and
// has been idle for at least minIdle seconds — the table-pressure
// guard's mitigation. A spoofed SYN touches its entry exactly once and
// never again, while a live connection confirms its entry with a second
// packet well inside any sane probation window; sweeping one-touch
// entries therefore sheds flood state at probation speed instead of
// waiting out the full idle timeout. It returns the eviction count.
func (t *Table) SweepProbation(now, minIdle float64) int {
	var victims []*entry
	for _, e := range t.idle {
		if e.hits <= 1 && now-e.lastSeen >= minIdle {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		heap.Remove(&t.idle, e.idx)
		delete(t.entries, e.key)
		t.ProbationEvicted++
	}
	return len(victims)
}

// expire evicts entries idle beyond the timeout.
func (t *Table) expire(now float64) {
	for t.idle.Len() > 0 {
		oldest := t.idle[0]
		if now-oldest.lastSeen < t.timeout {
			return
		}
		heap.Pop(&t.idle)
		delete(t.entries, oldest.key)
		t.Expired++
	}
}

type idleHeap []*entry

func (h idleHeap) Len() int            { return len(h) }
func (h idleHeap) Less(i, j int) bool  { return h[i].lastSeen < h[j].lastSeen }
func (h idleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *idleHeap) Push(x interface{}) { e := x.(*entry); e.idx = len(*h); *h = append(*h, e) }
func (h *idleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// LoadBalancer is the SilkRoad-style L4 balancer: connections are pinned
// in the Table; when the table cannot hold a connection, forwarding falls
// back to a stateless hash over the *current* backend pool version — the
// consistency SilkRoad exists to provide is lost for exactly those
// connections.
type LoadBalancer struct {
	Table    *Table
	backends int
	version  uint64 // bumped by pool updates
	rng      *stats.RNG
}

// NewLoadBalancer returns a balancer over n backends.
func NewLoadBalancer(table *Table, n int, rng *stats.RNG) *LoadBalancer {
	if n <= 0 {
		panic("conntrack: need at least one backend")
	}
	return &LoadBalancer{Table: table, backends: n, rng: rng}
}

// UpdatePool simulates a backend-pool change (add/remove/reweight): the
// stateless hash now maps differently, so unpinned connections move.
func (lb *LoadBalancer) UpdatePool() { lb.version++ }

// statelessHash maps a connection to a backend under the current pool
// version.
func (lb *LoadBalancer) statelessHash(k packet.FlowKey) Backend {
	return Backend((k.FastHash() ^ lb.version*0x9e3779b97f4a7c15) % uint64(lb.backends))
}

// Dispatch returns the backend for a packet of connection k, pinning new
// connections when table space allows. pinned reports whether the
// decision came from per-connection state.
func (lb *LoadBalancer) Dispatch(now float64, k packet.FlowKey, isNew bool) (b Backend, pinned bool) {
	if be, ok := lb.Table.Lookup(now, k); ok {
		return be, true
	}
	b = lb.statelessHash(k)
	if isNew && lb.Table.Insert(now, k, b) {
		return b, true
	}
	return b, false
}
