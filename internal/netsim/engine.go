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
// the global scheduling sequence number — regardless of which scheduler
// backs the queue (timing wheel or 4-ary heap, see Scheduler), regardless
// of link-lane batching, and regardless of when a link's lazily settled
// serialization-done transitions are applied (see Link). Simulation code
// must draw all randomness from seeded stats.RNG streams (SplitMix64
// child derivation, stats.ChildAt for per-trial streams), never from the
// wall clock or a global generator, so results are bit-identical at any
// worker count.
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
//   - a down drop or queue drop, after the probe and the drop handler;
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
	"os"
)

// Scheduler selects the event-queue implementation backing an Engine.
// Both produce the exact same execution order — ascending (t, seq) — so
// the choice is purely a throughput trade-off; cmd/simtrace diffs of the
// same scenario under both schedulers are byte-identical.
type Scheduler int

// Scheduler kinds.
const (
	// SchedulerWheel is the default: an 8192-slot timing wheel that
	// serves events from a sorted ready run, buckets near-future events
	// into unsorted per-tick slots, and stages far-future events (RTO
	// timers, scheduled failures and flaps) for a sorted overflow heap.
	// Insert and pop are amortized O(1) on the clustered-timestamp
	// workloads netsim produces; see wheel.go for the full design.
	SchedulerWheel Scheduler = iota
	// SchedulerHeap is the PR 2 value-typed 4-ary min-heap, kept as the
	// reference implementation: O(log n) insert/pop, trivially correct
	// ordering. DUI_ENGINE=heap selects it process-wide for A/B trace
	// diffing.
	SchedulerHeap
)

// String names the scheduler for benchmarks and diagnostics.
func (s Scheduler) String() string {
	if s == SchedulerHeap {
		return "heap"
	}
	return "wheel"
}

// defaultScheduler is what NewEngine uses; initialized from DUI_ENGINE.
var defaultScheduler = schedulerFromEnv()

// schedulerFromEnv maps DUI_ENGINE to a Scheduler: "heap" selects the
// reference heap, anything else (including unset) the timing wheel.
func schedulerFromEnv() Scheduler {
	if os.Getenv("DUI_ENGINE") == "heap" {
		return SchedulerHeap
	}
	return SchedulerWheel
}

// DefaultScheduler returns the scheduler NewEngine currently uses.
func DefaultScheduler() Scheduler { return defaultScheduler }

// SetDefaultScheduler changes the scheduler NewEngine uses and returns
// the previous value, for tests and A/B drivers that build networks
// through code paths without an explicit engine choice. Not safe for
// concurrent use with engine construction.
func SetDefaultScheduler(s Scheduler) (prev Scheduler) {
	prev = defaultScheduler
	defaultScheduler = s
	return prev
}

// scheduler is the priority-queue contract both implementations satisfy:
// pop must always return the pending event with the smallest (t, seq)
// key, and peek must report that key without removing it.
type scheduler interface {
	push(event)
	pop() event
	peek() (t float64, seq uint64, ok bool)
	len() int
}

// Engine is the discrete-event core: a virtual clock and an event queue.
// Events at equal timestamps fire in scheduling order (stable FIFO), which
// keeps runs deterministic.
//
// The queue is value-typed — event structs, never *event or interface
// boxing — so scheduling allocates nothing in steady state, and the
// (t, seq) key is a total order, so the execution order is independent of
// the queue's internal shape. Lanes (see Lane) are pre-sorted FIFO event
// sources merged into the same total order; the engine keeps every
// non-empty lane in a small auxiliary min-heap keyed by its head entry
// and, each loop step, runs whichever of the scheduler minimum and the
// best lane head comes first, draining consecutive lane entries in a
// burst while they precede everything else pending.
type Engine struct {
	now float64
	seq uint64
	// curSeq completes the settle frontier (now, curSeq): every event
	// keyed strictly before it has executed and none at or after it has.
	// Inside run it is the executing entry's seq; once a run reaches its
	// horizon it is one past the last seq handed out. Links apply their
	// pending serialization-done transitions against it (passed).
	curSeq   uint64
	audit    bool
	budget   uint64
	executed uint64
	kind     Scheduler
	sched    scheduler
	// laneQ is the binary min-heap of armed (non-empty) lanes, ordered by
	// head-entry (T, Seq). The key is stored inline in each heap element
	// so comparisons never chase the lane pointer, and it is stable while
	// queued: only a draining lane pops entries, and it is removed from
	// laneQ for the duration of its drain, so the heap never needs
	// arbitrary removal or re-keying.
	laneQ []laneRef
	// laneEntries counts pending entries across all lanes; Pending()
	// reconciles it with the scheduler so callers see one coherent
	// pending-event count.
	laneEntries int
	// schedGen increments on every push that could introduce a new global
	// minimum (scheduler pushes and lane arms). Lane drains cache their
	// drain boundary and recompute only when this changes, since the
	// boundary can otherwise only move when the drain itself pops.
	schedGen uint64
	// wires lists every link direction, whose unsettled serialization-done
	// transitions Pending counts.
	wires []*linkDir
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
// across schedulers and with batching on or off. A link's
// serialization-done transitions are settled lazily rather than executed,
// so they are not counted (a transition flushed by a link failure runs as
// the no-op event it would have been, and is).
func (e *Engine) Executed() uint64 { return e.executed }

// checkBudget enforces the event-budget watchdog after each executed event.
func (e *Engine) checkBudget() {
	e.executed++
	if e.budget != 0 && e.executed > e.budget {
		panic(&LivelockError{Budget: e.budget, Now: e.now, Pending: e.Pending()})
	}
}

// NewEngine returns an engine with the clock at zero, backed by the
// default scheduler (the timing wheel unless DUI_ENGINE=heap).
func NewEngine() *Engine { return NewEngineSched(defaultScheduler) }

// NewEngineSched returns an engine backed by an explicit scheduler kind.
func NewEngineSched(kind Scheduler) *Engine {
	e := &Engine{kind: kind}
	if kind == SchedulerHeap {
		e.sched = &heapSched{}
	} else {
		e.sched = newWheelSched()
	}
	return e
}

// Scheduler returns the scheduler kind backing this engine.
func (e *Engine) Scheduler() Scheduler { return e.kind }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetAudit toggles continuous causality checking: every popped event's
// timestamp is verified against virtual-time monotonicity, so a corrupted
// queue order — a mis-bucketed wheel slot, a broken heap, an out-of-order
// lane — panics at the first out-of-order pop instead of silently
// reordering the simulation. Lane pushes are additionally checked for the
// FIFO monotonicity their contract requires. Costs one comparison per
// event when on.
func (e *Engine) SetAudit(on bool) { e.audit = on }

// checkCausality panics if executing an event at t would move the clock
// backwards. At/After already reject past scheduling, so a violation here
// means the priority queue itself mis-ordered events — under the wheel
// scheduler, that an event was cascaded into a slot behind the cursor.
func (e *Engine) checkCausality(t float64) {
	if t < e.now {
		panic("netsim: audit: event queue popped an event before the current virtual time")
	}
}

// At schedules fn at absolute time t. Scheduling in the past or at NaN
// panics: both are always simulation bugs (a NaN timestamp would silently
// corrupt the queue order, since NaN compares false against everything).
func (e *Engine) At(t float64, fn func()) {
	if math.IsNaN(t) {
		panic("netsim: scheduling at NaN")
	}
	if t < e.now {
		panic("netsim: scheduling into the past")
	}
	e.seq++
	e.schedGen++
	e.sched.push(event{t: t, seq: e.seq, fn: fn})
}

// nextSeq hands out the next scheduling sequence number without queueing
// anything, for a link's serialization-done transition: it keeps the key
// (t, seq) it would have had as an event, but is applied lazily.
func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// passed reports whether an event keyed (t, seq) would already have
// executed: whether the key precedes the settle frontier (now, curSeq).
func (e *Engine) passed(t float64, seq uint64) bool {
	return t < e.now || (t == e.now && seq < e.curSeq)
}

// pushNop queues a no-op event at an already-assigned key: a link
// failure hands its flushed serialization-done transitions back this way,
// so they stay pending, and then execute, exactly as the events they
// would have been.
func (e *Engine) pushNop(t float64, seq uint64) {
	e.schedGen++
	e.sched.push(event{t: t, seq: seq, fn: nop})
}

func nop() {}

// After schedules fn d seconds from now. Negative or NaN d panics.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 || math.IsNaN(d) {
		panic("netsim: After with negative or NaN delay")
	}
	e.At(e.now+d, fn)
}

// Pending returns the number of queued events, counting each pending lane
// entry once and each not yet passed serialization-done transition of a
// link as the event it would have been. It settles every link direction.
func (e *Engine) Pending() int {
	n := e.sched.len() + e.laneEntries
	for _, d := range e.wires {
		d.settle(e)
		n += d.wires.n
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

// Run executes all events until the queue drains. Use RunUntil for open
// systems that generate events forever.
func (e *Engine) Run() int {
	n := e.run(math.Inf(1))
	e.curSeq = e.seq + 1
	return n
}

// run is the shared event loop: each step compares the scheduler minimum
// with the best lane head (root of laneQ) and executes whichever has the
// smaller (t, seq) key, repeating while its time is within the horizon.
// Picking a lane removes it from laneQ and drains the burst of
// consecutive entries that still precede everything else (runLane), then
// re-queues it if entries remain.
func (e *Engine) run(until float64) int {
	n := 0
	for {
		mt, mseq, ok := e.sched.peek()
		if len(e.laneQ) > 0 {
			r := e.laneQ[0]
			if !ok || r.t < mt || (r.t == mt && r.seq < mseq) {
				// r.t <= until is implied whenever the scheduler still has
				// in-horizon work (r precedes it), so this check only
				// triggers when the lane head is the true stopping point.
				if r.t > until {
					return n
				}
				e.laneQPop()
				n += e.runLane(r.ln, until)
				continue
			}
		}
		if !ok || mt > until {
			return n
		}
		ev := e.sched.pop()
		if e.audit {
			e.checkCausality(ev.t)
		}
		e.now, e.curSeq = ev.t, ev.seq
		ev.fn()
		n++
		e.checkBudget()
	}
}

type event struct {
	t   float64
	seq uint64
	fn  func()
}

// less orders by time, then by scheduling sequence — a total order, so any
// valid queue pops events in exactly one sequence.
func (a event) less(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}
