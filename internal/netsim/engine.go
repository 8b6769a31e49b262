// Package netsim is a deterministic discrete-event network simulator: hosts
// and routers connected by rate/delay/queue-limited links, longest-prefix
// routing, TTL handling with ICMP time-exceeded generation, and — because
// this repository studies adversarial inputs — the paper's three attacker
// privilege levels (§2.1) as first-class hooks: compromised hosts inject
// and spoof traffic, MitM taps on links record/modify/drop/delay/inject,
// and operator control reaches every device and its configuration.
//
// It replaces the mininet + P4 testbed of the paper. All time is virtual
// (float64 seconds); runs are bit-reproducible for a fixed seed.
//
// # Determinism contract
//
// Every run is a pure function of the scenario and its seeds. The engine
// executes events in exactly one order — ascending (t, seq), where seq is
// the global scheduling sequence number — regardless of lane batching
// (link deliveries, PCC pacing), and regardless of which reserved keys
// are ever queued: a link's serialization-done transitions are settled
// lazily and a TCP sender's superseded RTO arms simply pass, but both
// take their (t, seq) from Reserve exactly where their events once did
// (see Key). Simulation code must draw all randomness from seeded
// stats.RNG streams (SplitMix64 child derivation, stats.ChildAt for
// per-trial streams), never from the wall clock or a global generator, so
// results are bit-identical at any worker count.
//
// # Packet ownership
//
// Packet values handed to hot-path callbacks follow the scratch-packet
// rule of internal/trace: they are valid only for the duration of the
// callback unless the producer documents otherwise; retainers must
// Clone(). The rule is load-bearing: each Network keeps a free list of
// TCP packets, and the TCP producers (tcpflow, pcc, blink.PlayStream, the
// scenario injector and fault-plane duplicates) take their packets from
// it through Network.NewTCP and Network.CloneTCP. netsim returns such a
// packet to the list at its single end of life, and the next NewTCP may
// hand the same memory out again:
//
//   - delivery to a host, after the receiver returns;
//   - arrival at a host as transit traffic;
//   - no route, a program drop, or TTL expiry (after the ICMP reply is
//     built);
//   - a tap drop, or a tap Replace that supersedes it (Replace != p);
//   - a fault drop, or a fault Replace that supersedes it;
//   - a down drop or queue drop, after the probe;
//   - a failure flush, when the flushed delivery would have run.
//
// A packet that is queued, on the wire, or held by a tap or fault delay
// is never released. A receiver that re-sends the packet it was handed
// must Clone it, and a producer must not touch a packet after handing it
// to Send or an Injector. Packets built with packet.NewTCP or Clone are
// never recycled, so code that keeps its own packets is unaffected.
// DebugHooks.PoisonReleased checks that nothing reads a released packet.
package netsim

import (
	"fmt"
	"math"
)

// Engine is the discrete-event core: a virtual clock and an event queue.
// Events at equal timestamps fire in scheduling order (stable FIFO), which
// keeps runs deterministic.
//
// The queue is a value-typed 4-ary min-heap of event structs, never
// *event or interface boxing, so scheduling allocates nothing in steady
// state, and the (t, seq) key is a total order, so the execution order is
// independent of the heap's internal shape. Lanes (see Lane) are
// pre-sorted FIFO event sources merged into the same total order; the
// engine keeps every non-empty lane in a small auxiliary min-heap keyed by
// its head entry and, each loop step, runs whichever of the event-heap
// minimum and the best lane head comes first, draining consecutive lane
// entries in a burst while they precede everything else pending.
type Engine struct {
	now float64
	seq uint64
	// curSeq completes the settle frontier (now, curSeq): every event
	// keyed strictly before it has executed and none at or after it has.
	// Inside run it is the executing entry's seq; once a run reaches its
	// horizon it is one past the last seq handed out. Holders of reserved
	// keys settle against it (Passed).
	curSeq   uint64
	audit    bool
	budget   uint64
	executed uint64
	events   eventHeap
	// laneQ is the binary min-heap of armed (non-empty) lanes, ordered by
	// head-entry (T, Seq). The key is stored inline in each heap element
	// so comparisons never chase the lane pointer, and it is stable while
	// queued: only a draining lane pops entries, and it is removed from
	// laneQ for the duration of its drain, so the heap never needs
	// arbitrary removal or re-keying.
	laneQ []laneRef
	// laneEntries counts pending entries across all lanes; Pending()
	// adds it to the event heap's length so callers see one coherent
	// pending-event count.
	laneEntries int
	// schedGen increments on every push that could introduce a new global
	// minimum (event-heap pushes and lane arms). Lane drains cache their
	// drain boundary and recompute only when this changes, since the
	// boundary can otherwise only move when the drain itself pops.
	schedGen uint64
	// reservers lists every holder of reserved keys with no event queued
	// (link directions, TCP senders); Pending counts their keys.
	reservers []Reserver
}

// LivelockError is the panic value delivered when an engine's event budget
// is exhausted (SetEventBudget): a callback chain that self-schedules at
// zero delay would otherwise spin the event loop forever without advancing
// virtual time, turning a scenario bug into a silent hang. Harness layers
// (internal/scenario, internal/runner) recover it into a diagnosable error.
type LivelockError struct {
	Budget  uint64  // the exhausted budget
	Now     float64 // virtual time when the budget ran out
	Pending int     // events still queued at that moment
}

// Error implements error.
func (e *LivelockError) Error() string {
	return fmt.Sprintf("netsim: event budget exhausted: %d events executed without draining (virtual time %.6g, %d pending) — likely a callback self-scheduling at zero delay; fix the scenario or raise SetEventBudget", e.Budget, e.Now, e.Pending)
}

// SetEventBudget installs a watchdog on the total number of events this
// engine may execute across all Run/RunUntil calls; exceeding it panics
// with *LivelockError. 0 (the default) disables the watchdog. The audit
// layer and fuzzing campaigns set generous budgets so a zero-delay
// self-scheduling loop surfaces as a diagnosable failure instead of a
// wall-clock hang.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// EventBudget returns the installed event budget (0 = off).
func (e *Engine) EventBudget() uint64 { return e.budget }

// Executed returns the total number of events executed so far. Lane
// entries count exactly like ordinary events, so the count is identical
// with link-lane batching on or off. A reserved key whose holder never
// schedules it is not counted: a link's serialization-done transitions
// are settled lazily rather than executed (one flushed by a link failure
// runs as the no-op event it would have been, and is), and a TCP
// sender's superseded and cancelled RTO arms simply pass. Executed drops
// by exactly those keys, so an event budget is reached later only by a
// run that reserves keys without end.
func (e *Engine) Executed() uint64 { return e.executed }

// checkBudget enforces the event-budget watchdog after each executed event.
func (e *Engine) checkBudget() {
	e.executed++
	if e.budget != 0 && e.executed > e.budget {
		panic(&LivelockError{Budget: e.budget, Now: e.now, Pending: e.Pending()})
	}
}

// NewEngine returns an engine with the clock at zero and nothing queued.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetAudit toggles continuous causality checking: every popped event's
// timestamp is verified against virtual-time monotonicity, so a corrupted
// queue order — a broken heap, an out-of-order lane — panics at the first
// out-of-order pop instead of silently reordering the simulation. Lane pushes are additionally checked for the
// FIFO monotonicity their contract requires. Costs one comparison per
// event when on.
func (e *Engine) SetAudit(on bool) { e.audit = on }

// checkCausality panics if executing an event at t would move the clock
// backwards. At/After already reject past scheduling, so a violation here
// means the event heap or a lane itself mis-ordered events.
func (e *Engine) checkCausality(t float64) {
	if t < e.now {
		panic("netsim: audit: event queue popped an event before the current virtual time")
	}
}

// At schedules fn at absolute time t. Scheduling in the past or at NaN
// panics: both are always simulation bugs (a NaN timestamp would silently
// corrupt the queue order, since NaN compares false against everything).
func (e *Engine) At(t float64, fn func()) {
	k := e.Reserve(t)
	e.schedGen++
	e.events.push(event{k, fn})
}

// Key is a position in the engine's total execution order: an event's
// time and its scheduling sequence number.
//
// Reserve hands out the key At would assign, at the moment At would
// assign it, without queueing anything; AtKey queues work at it later.
// That lets a holder keep many would-be events as bare keys and schedule
// only the ones that matter, with the order of everything else
// unchanged: seqs are taken exactly where the events took them, and an
// event queued at its reserved key runs exactly where it would have run.
// A holder whose reserved keys stand for events it no longer queues
// registers with CountReserved, so Pending still counts each key until
// it passes.
type Key struct {
	T   float64
	Seq uint64
}

// Before reports whether an event keyed k executes before one keyed o.
func (k Key) Before(o Key) bool {
	if k.T != o.T {
		return k.T < o.T
	}
	return k.Seq < o.Seq
}

// Reserve takes the next scheduling sequence number for time t and
// returns the key At(t, ...) would have given an event now, queueing
// nothing. It panics where At does: at NaN or in the past.
func (e *Engine) Reserve(t float64) Key {
	if math.IsNaN(t) {
		panic("netsim: scheduling at NaN")
	}
	if t < e.now {
		panic("netsim: scheduling into the past")
	}
	e.seq++
	return Key{T: t, Seq: e.seq}
}

// AtKey schedules fn at a key Reserve handed out, taking no new seq. A key
// that has passed (Passed), or one never reserved, panics: the event could
// not run where its key says.
func (e *Engine) AtKey(k Key, fn func()) {
	if math.IsNaN(k.T) {
		panic("netsim: scheduling at NaN")
	}
	if k.Seq > e.seq || e.Passed(k) {
		panic("netsim: scheduling at a passed or unreserved key")
	}
	e.schedGen++
	e.events.push(event{k, fn})
}

// Passed reports whether an event keyed k would already have executed:
// whether k precedes the settle frontier (now, curSeq). Inside an event's
// callback the frontier is that event's own key.
func (e *Engine) Passed(k Key) bool {
	return k.T < e.now || (k.T == e.now && k.Seq < e.curSeq)
}

// Reserver is a holder of reserved keys that stand for events it has not
// queued. Pending counts its keys through Reserved.
type Reserver interface {
	// Reserved returns how many such keys have not passed yet.
	Reserved() int
}

// CountReserved registers r, so Pending counts each key it reports as
// the event it would have been.
func (e *Engine) CountReserved(r Reserver) {
	e.reservers = append(e.reservers, r)
}

// nop is the event a link failure queues at each flushed transition's
// reserved key, so the transition stays pending, and then executes, as
// the event it would have been.
func nop() {}

// After schedules fn d seconds from now. Negative or NaN d panics.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 || math.IsNaN(d) {
		panic("netsim: After with negative or NaN delay")
	}
	e.At(e.now+d, fn)
}

// Pending returns the number of queued events, counting each pending lane
// entry once and each not yet passed key a registered Reserver holds (a
// link's serialization-done transitions, a TCP sender's superseded RTO
// arms) as the event it would have been.
func (e *Engine) Pending() int {
	n := len(e.events) + e.laneEntries
	for _, r := range e.reservers {
		n += r.Reserved()
	}
	return n
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event is after t; the clock ends at exactly t (or later events
// remain queued). It returns the number of events executed. A NaN horizon
// panics, as At(NaN) does: no event time compares after it, so the run
// would never stop on an open system and would never set the clock.
func (e *Engine) RunUntil(t float64) int {
	if math.IsNaN(t) {
		panic("netsim: RunUntil at NaN")
	}
	n := e.run(t)
	if e.now <= t {
		// Every event at or before t has run, whatever its seq. A horizon
		// behind the clock runs nothing and leaves the frontier alone.
		e.now = t
		e.curSeq = e.seq + 1
	}
	return n
}

// run is the shared event loop: each step compares the event-heap minimum
// with the best lane head (root of laneQ) and executes whichever has the
// smaller (t, seq) key, repeating while its time is within the horizon.
// Picking a lane removes it from laneQ and drains the burst of
// consecutive entries that still precede everything else (runLane), then
// re-queues it if entries remain.
func (e *Engine) run(until float64) int {
	n := 0
	for {
		m, ok := e.events.peek()
		if len(e.laneQ) > 0 {
			r := e.laneQ[0]
			if !ok || r.Before(m) {
				// r.T <= until is implied whenever the event heap still has
				// in-horizon work (r precedes it), so this check only
				// triggers when the lane head is the true stopping point.
				if r.T > until {
					return n
				}
				e.laneQPop()
				n += e.runLane(r.ln, until)
				continue
			}
		}
		if !ok || m.T > until {
			return n
		}
		ev := e.events.pop()
		if e.audit {
			e.checkCausality(ev.T)
		}
		e.now, e.curSeq = ev.T, ev.Seq
		ev.fn()
		n++
		e.checkBudget()
	}
}

// event is one queued callback. Its key orders by time, then by
// scheduling sequence — a total order, so any valid queue pops events in
// exactly one sequence.
type event struct {
	Key
	fn func()
}
