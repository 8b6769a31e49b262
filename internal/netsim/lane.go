package netsim

import (
	"math"

	"dui/internal/packet"
)

// LaneEntry is one pending event in a Lane: an engine-assigned (T, Seq)
// key plus a fixed payload — an integer slot, a flag settable through
// Lane.Flag, and a packet pointer — so scheduling a packet allocates
// nothing. Links use the packet and the flag (set when a link failure
// flushes the packet before it reached the wire); PCC's paced sends use
// the slot for the data seq and the flag for an RTT probe. Work that needs
// richer state uses an ordinary closure via Engine.At instead.
type LaneEntry struct {
	T   float64 // firing time, set by Push
	Seq uint64  // global scheduling sequence, set by Push
	Tag uint64  // payload slot
	OK  bool    // payload flag, settable later via Flag
	P   *packet.Packet
}

// Lane is a pre-sorted FIFO event source merged into the engine's (t, seq)
// total order. Pushing costs a ring-buffer append — no priority-queue
// work and no closure allocation — under one contract: times must be
// monotonically non-decreasing, which link serialization satisfies by
// construction (busyUntil only moves forward while a link stays up), and
// so does a PCC sender's pacing (each monitor interval's sends precede
// the next interval's). The engine keeps every non-empty lane in a small
// min-heap keyed by its head entry's exact (t, seq); when a lane head is
// the global minimum the engine drains a whole burst of consecutive
// entries while they precede everything else pending. One callback, fixed
// at creation, runs every entry.
//
// Lanes are an ordering-transparent optimization: Push assigns seq from
// the same counter as At/After, so a lane entry executes exactly where the
// equivalent At call would have — same order, same Executed count, same
// trace bytes (DebugHooks.DisableLinkLanes routes packets back through
// closures to A/B this).
type Lane struct {
	eng *Engine
	run func(LaneEntry)

	buf  []LaneEntry // power-of-two ring
	head int
	n    int
	base uint64 // absolute position of buf[head]
	// draining marks an in-progress runLane burst: pushes must not
	// re-queue the lane in laneQ (the drain loop re-arms on exit if
	// entries remain).
	draining bool
}

// NewLane registers a lane on the engine. run executes each entry; it may
// schedule further work, including into this same lane.
func (e *Engine) NewLane(run func(LaneEntry)) *Lane {
	return &Lane{eng: e, run: run}
}

// Len returns the number of pending entries.
func (ln *Lane) Len() int { return ln.n }

// NextPos returns the absolute position the next Push will occupy, so a
// caller can address the entry later through Flag.
func (ln *Lane) NextPos() uint64 { return ln.base + uint64(ln.n) }

// CanPush reports whether an entry at time t respects the lane's FIFO
// monotonicity. A false return means the caller must fall back to
// Engine.At — after a link failure resets the serialization horizon, new
// enqueue times can regress behind stale pending entries.
func (ln *Lane) CanPush(t float64) bool {
	return ln.n == 0 || t >= ln.buf[(ln.head+ln.n-1)&(len(ln.buf)-1)].T
}

// Push appends an entry at time t, assigns its (T, Seq) key — bumping the
// engine's sequence exactly as Engine.At would — and returns its absolute
// position. Push panics on NaN, past, or non-monotone t: the first two
// mirror At's validation, the third is the lane contract CanPush guards.
func (ln *Lane) Push(t float64, en LaneEntry) uint64 {
	if math.IsNaN(t) {
		panic("netsim: lane push at NaN")
	}
	if t < ln.eng.now {
		panic("netsim: lane push into the past")
	}
	if !ln.CanPush(t) {
		panic("netsim: lane push breaks FIFO monotonicity")
	}
	return ln.push(t, en)
}

// push is Push without revalidation, for package-internal callers that
// have already established the contract (Link.enqueue checks CanPush
// first, and its times derive from the monotone serialization horizon, so
// they are finite and never past).
func (ln *Lane) push(t float64, en LaneEntry) uint64 {
	e := ln.eng
	e.seq++
	en.T, en.Seq = t, e.seq
	if ln.n == len(ln.buf) {
		ln.grow()
	}
	pos := ln.base + uint64(ln.n)
	ln.buf[(ln.head+ln.n)&(len(ln.buf)-1)] = en
	ln.n++
	e.laneEntries++
	if ln.n == 1 && !ln.draining {
		e.arm(ln)
	}
	return pos
}

// grow doubles the ring, unwrapping it to start at index 0.
func (ln *Lane) grow() {
	c := len(ln.buf) * 2
	if c == 0 {
		c = 16
	}
	nb := make([]LaneEntry, c)
	for i := 0; i < ln.n; i++ {
		nb[i] = ln.buf[(ln.head+i)&(len(ln.buf)-1)]
	}
	ln.buf, ln.head = nb, 0
}

// Flag sets the OK payload flag on the pending entry at absolute position
// pos (as returned by Push/NextPos). Positions already executed are
// ignored; links use this so a link failure marks the deliveries of the
// packets it flushed dead.
func (ln *Lane) Flag(pos uint64) {
	if pos < ln.base || pos >= ln.base+uint64(ln.n) {
		return
	}
	ln.buf[(ln.head+int(pos-ln.base))&(len(ln.buf)-1)].OK = true
}

// pop removes and returns the head entry. Only the packet pointer is
// cleared from the vacated slot — the scalar fields are dead until the
// slot is overwritten (Flag bounds-checks against [base, base+n)), and P
// must not pin a delivered packet for a full ring revolution.
func (ln *Lane) pop() LaneEntry {
	en := ln.buf[ln.head]
	ln.buf[ln.head].P = nil
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	ln.n--
	ln.base++
	ln.eng.laneEntries--
	return en
}

// laneRef is one armed lane in the engine's laneQ min-heap: the lane's
// head-entry key copied inline — comparisons stay within the heap's own
// backing array — plus the lane itself. Head keys are stable while a lane
// sits in laneQ (entries pop only during a drain, and a draining lane is
// removed from laneQ first), so a copied key never goes stale.
type laneRef struct {
	Key
	ln *Lane
}

// arm queues a newly non-empty lane in laneQ. The lane carries its head
// entry's exact (t, seq) key into the merge, and arming does not bump the
// engine sequence — it is bookkeeping, not an event — so seq assignment
// matches the closure path bit for bit.
func (e *Engine) arm(ln *Lane) {
	e.schedGen++
	h := &ln.buf[ln.head]
	r := laneRef{Key{h.T, h.Seq}, ln}
	e.laneQ = append(e.laneQ, r)
	i := len(e.laneQ) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !r.Before(e.laneQ[parent].Key) {
			break
		}
		e.laneQ[i] = e.laneQ[parent]
		i = parent
	}
	e.laneQ[i] = r
}

// laneQPop removes the root (best head key) from laneQ.
func (e *Engine) laneQPop() {
	last := len(e.laneQ) - 1
	r := e.laneQ[last]
	e.laneQ[last] = laneRef{}
	e.laneQ = e.laneQ[:last]
	if last == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && e.laneQ[c+1].Before(e.laneQ[c].Key) {
			c++
		}
		if !e.laneQ[c].Before(r.Key) {
			break
		}
		e.laneQ[i] = e.laneQ[c]
		i = c
	}
	e.laneQ[i] = r
}

// runLane executes a lane burst after run picked the lane's head as the
// global minimum (and removed the lane from laneQ): the head entry always
// runs, then consecutive entries keep draining while they still precede
// the until horizon, the event heap's minimum, and every other lane's
// head. On exit with entries remaining, the lane re-queues with its new
// head key.
func (e *Engine) runLane(ln *Lane, until float64) int {
	ln.draining = true
	n := 0
	// Cache the drain boundary — min of the event-heap peek and the best
	// other lane head — for the whole burst: it can only change if an
	// entry's callback pushes (At or another lane arming), which schedGen
	// tracks; the drain itself never pops anything else.
	m, mok := e.mergeMin()
	gen := e.schedGen
	for {
		en := ln.pop()
		if e.audit {
			e.checkCausality(en.T)
		}
		e.now, e.curSeq = en.T, en.Seq
		ln.run(en)
		n++
		e.checkBudget()
		if ln.n == 0 {
			break
		}
		h := &ln.buf[ln.head]
		if h.T > until {
			e.arm(ln)
			break
		}
		if gen != e.schedGen {
			m, mok = e.mergeMin()
			gen = e.schedGen
		}
		if mok && !(Key{h.T, h.Seq}).Before(m) {
			e.arm(ln)
			break
		}
	}
	ln.draining = false
	return n
}

// mergeMin returns the best key pending outside the currently draining
// lane: the event-heap minimum merged with laneQ's root.
func (e *Engine) mergeMin() (Key, bool) {
	m, ok := e.events.peek()
	if len(e.laneQ) > 0 {
		if r := e.laneQ[0]; !ok || r.Before(m) {
			return r.Key, true
		}
	}
	return m, ok
}
