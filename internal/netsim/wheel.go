package netsim

import "math"

// Timing-wheel scheduler. The queue is split into three regions by
// timestamp, and every boundary comparison uses the one shared formula
// slotLow(i) = start + i·tick, so the partition is exact in floating
// point:
//
//	ready     events with t < slotLow(cursor+1): a sorted array served
//	          in place — it always yields the global (t, seq) minimum
//	slots[i]  events with slotLow(i) <= t < slotLow(i+1), cursor < i < N:
//	          unsorted buckets, O(1) append
//	overflow  events with t >= slotLow(N) (the horizon): far-future work —
//	          RTO timers, scheduled failures and flaps. New arrivals land
//	          in an unsorted staging buffer (O(1) append) that is drained
//	          at the next rebase, when most of it places straight into the
//	          fresh rotation; only events still beyond the new horizon pay
//	          for the 4-ary overflow heap
//
// pop serves the ready array front to back; when ready drains, the cursor
// advances and the next non-empty slot is sorted wholesale into ready —
// one cache-friendly sort per slot instead of a heap sift per event.
// After a full rotation the wheel rebases (start += N·tick) and promotes
// newly in-horizon overflow events into the fresh rotation. Because every
// ready event is strictly before slotLow(cursor+1) and every
// slot/overflow event is at or after it, the ready minimum is always the
// global minimum — so pop order is exactly the heap scheduler's (t, seq)
// total order (the argument is spelled out in DESIGN.md).
//
// The tick adapts to the workload: at each rebase it moves toward
// gap·pending/N — the width at which the whole pending population spans
// about one rotation — clamped to a factor-of-2 step so boundaries stay
// stable, and a degenerate ready (everything clustered under one slot)
// triggers a respread that resizes the tick from the cluster's actual
// span. The slot count N adapts too: a fresh wheel has minSlots slots,
// and each rebase doubles the table, up to maxSlots, while the pending
// population outgrows it, so a short scenario never allocates (or makes
// the collector scan) a table sized for a dense million-event run.
// Adaptation only ever happens while the slots are empty, so no event
// needs re-bucketing, and it depends only on event timestamps and counts
// — never on wall clock — so it is deterministic.
const (
	minSlots   = 256  // slots per rotation of a fresh wheel
	maxSlots   = 8192 // slots per rotation once the population has grown
	wheelSpill = 4096 // ready size that triggers a respread (slots empty)
	minTick    = 1e-9 // 1 ns of virtual time
	maxTick    = 1e6  // ~11 virtual days per slot
)

type wheelSched struct {
	// ready[head:] is sorted ascending by (t, seq); pop serves ready[head]
	// and advances head. Cleared to ready[:0] when it drains, keeping the
	// backing array.
	ready    []event
	head     int
	overflow eventHeap
	// stage buffers beyond-horizon arrivals unsorted until the next
	// rebase; stageMin tracks its minimum timestamp so the idle jump
	// never has to scan it.
	stage    []event
	stageMin float64
	slots    [][]event // one unsorted bucket per tick; N = len(slots)
	cursor   int
	start    float64 // time of slot 0 in the current rotation
	tick     float64
	// Derived values cached by recalc so the place hot path costs one
	// multiply and two compares instead of repeated slotLow evaluations:
	// invTick = 1/tick, curHigh = slotLow(cursor+1), horizon =
	// slotLow(N). Boundary decisions still resolve through
	// slotLow itself (via the correction loops), so the cached values are
	// an accelerator, never a second source of truth.
	invTick float64
	curHigh float64
	horizon float64
	inWheel int // events currently bucketed in slots
	spillAt int // ready size that triggers the next respread attempt
	// adaptation counters: pops and last pop time since the last rebase.
	popped   uint64
	lastPopT float64
	baseT    float64
}

func newWheelSched() *wheelSched {
	w := &wheelSched{
		slots:    make([][]event, minSlots),
		tick:     1e-3,
		spillAt:  wheelSpill,
		stageMin: math.Inf(1),
	}
	w.recalc()
	return w
}

// recalc refreshes the cached derived values. Must be called after any
// change to start, cursor, or tick, before the next place.
func (w *wheelSched) recalc() {
	w.invTick = 1 / w.tick
	w.curHigh = w.slotLow(w.cursor + 1)
	w.horizon = w.slotLow(len(w.slots))
}

// slotLow is the single boundary formula: the low edge of slot i. Slot i
// covers [slotLow(i), slotLow(i+1)); slotLow(N) is the horizon.
func (w *wheelSched) slotLow(i int) float64 { return w.start + float64(i)*w.tick }

func (w *wheelSched) len() int {
	return len(w.ready) - w.head + w.inWheel + len(w.overflow) + len(w.stage)
}

func (w *wheelSched) push(ev event) {
	if len(w.ready)-w.head >= w.spillAt && w.inWheel == 0 {
		w.respread()
	}
	w.place(ev)
}

// place routes one event into ready, a slot, or overflow. The bucket
// index from the float division is corrected against slotLow itself, so
// rounding in the division can never bucket an event outside its slot's
// [slotLow(i), slotLow(i+1)) window.
func (w *wheelSched) place(ev event) {
	if ev.t < w.curHigh { // == slotLow(cursor+1), cached by recalc
		w.readyInsert(ev)
		return
	}
	if !(ev.t < w.horizon) { // == slotLow(N), cached by recalc
		// Beyond the horizon: stage it. Inserting into the overflow heap
		// here would be wasted work — late in a rotation the remaining
		// window shrinks toward one tick, so even modest delays land
		// "beyond the horizon" and would re-enter the wheel at the very
		// next rebase. Staging makes those a pair of O(1) moves.
		if ev.t < w.stageMin {
			w.stageMin = ev.t
		}
		w.stage = append(w.stage, ev)
		return
	}
	n := len(w.slots)
	idx := int((ev.t - w.start) * w.invTick)
	if idx >= n {
		idx = n - 1
	}
	for idx > w.cursor+1 && ev.t < w.slotLow(idx) {
		idx--
	}
	for idx < n-1 && ev.t >= w.slotLow(idx+1) {
		idx++
	}
	if idx <= w.cursor {
		// Unreachable given the first branch, but cheap to keep exact.
		w.readyInsert(ev)
		return
	}
	w.slots[idx] = append(w.slots[idx], ev)
	w.inWheel++
}

// readyInsert places ev into the sorted ready array. The common cases are
// O(1): append past the current maximum (monotone bursts) and prepend
// below the current minimum into the space pops vacated (zero-delay
// follow-ups). The general case binary-searches and shifts the shorter
// side.
func (w *wheelSched) readyInsert(ev event) {
	n := len(w.ready)
	if w.head == n {
		if n > 0 {
			w.ready, w.head = w.ready[:0], 0
		}
		w.ready = append(w.ready, ev)
		return
	}
	if !ev.less(w.ready[n-1]) {
		w.ready = append(w.ready, ev)
		return
	}
	if w.head > 0 && ev.less(w.ready[w.head]) {
		w.head--
		w.ready[w.head] = ev
		return
	}
	lo, hi := w.head, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.ready[mid].less(ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if w.head > 0 && lo-w.head <= n-lo {
		copy(w.ready[w.head-1:lo-1], w.ready[w.head:lo])
		w.head--
		w.ready[lo-1] = ev
	} else {
		w.ready = append(w.ready, event{})
		copy(w.ready[lo+1:], w.ready[lo:n])
		w.ready[lo] = ev
	}
}

func (w *wheelSched) pop() event {
	w.ensureReady()
	ev := w.ready[w.head]
	w.ready[w.head] = event{} // drop the fn reference so the closure can be collected
	w.head++
	w.popped++
	w.lastPopT = ev.t
	return ev
}

func (w *wheelSched) peek() (float64, uint64, bool) {
	w.ensureReady()
	if w.head == len(w.ready) {
		return 0, 0, false
	}
	return w.ready[w.head].t, w.ready[w.head].seq, true
}

// ensureReady advances the wheel until ready holds the global minimum (or
// everything is empty): sort slots into ready cursor-forward, rebase
// after a full rotation, and jump straight to the overflow minimum when
// the wheel is idle so sparse stretches cost no slot scans.
func (w *wheelSched) ensureReady() {
	for w.head == len(w.ready) {
		if w.inWheel > 0 {
			w.cursor++
			w.curHigh = w.slotLow(w.cursor + 1)
			if s := w.slots[w.cursor]; len(s) > 0 {
				// Swap backing arrays: the slot (sorted in place) becomes
				// ready, and ready's spent buffer — every popped entry was
				// already zeroed in pop — becomes the slot's empty buffer.
				// No copy, no clearing loop.
				sortEvents(s)
				w.slots[w.cursor] = w.ready[:0]
				w.ready, w.head = s, 0
				w.inWheel -= len(s)
			}
			continue
		}
		if len(w.overflow) == 0 && len(w.stage) == 0 {
			return
		}
		minT := w.stageMin
		if len(w.overflow) > 0 && w.overflow[0].t < minT {
			minT = w.overflow[0].t
		}
		if math.IsInf(minT, 1) {
			// Only +Inf events remain; they have no finite slot. Drain
			// them through ready, where seq breaks the ties.
			for len(w.overflow) > 0 {
				w.readyInsert(w.overflow.pop())
			}
			for i := range w.stage {
				w.readyInsert(w.stage[i])
				w.stage[i] = event{}
			}
			w.stage = w.stage[:0]
			return
		}
		w.rebase(minT)
		if w.head == len(w.ready) && w.inWheel == 0 {
			// start + tick == start at this magnitude (the tick is
			// absorbed), so the horizon collapsed onto start and promote
			// could move nothing. Degrade to heap behavior: pop the
			// minimum straight into ready so the wheel always progresses.
			w.readyInsert(w.overflow.pop())
		}
	}
}

// rebase starts a fresh rotation at newStart (the overflow minimum — the
// wheel only rebases once its slots are empty), adapts the slot count and
// the tick, and promotes overflow events that now fall inside the horizon.
// Callers guarantee ready and all slots are empty.
func (w *wheelSched) rebase(newStart float64) {
	w.fitSlots()
	w.retick()
	w.start = newStart
	w.cursor = 0
	w.baseT = newStart
	w.spillAt = wheelSpill
	w.recalc()
	w.promote()
}

// promote moves staged and overflow events inside the new horizon into
// the wheel. The stage drains completely: in-horizon events place
// directly, the far-future rest settles into the overflow heap.
func (w *wheelSched) promote() {
	if len(w.stage) > 0 {
		for i := range w.stage {
			if ev := w.stage[i]; ev.t < w.horizon {
				w.place(ev)
			} else {
				w.overflow.push(ev)
			}
			w.stage[i] = event{}
		}
		w.stage = w.stage[:0]
		w.stageMin = math.Inf(1)
	}
	for len(w.overflow) > 0 && w.overflow[0].t < w.horizon {
		w.place(w.overflow.pop())
	}
}

// retick moves the tick toward gap·pending/N — the width at which the
// whole pending population spans about one rotation — one factor-of-2
// step at a time. (Targeting the bare inter-event gap would be wrong with
// population ≫ N slots: it shrinks the horizon until almost everything
// lands in overflow, degrading every insert back to O(log n). The
// headroom factor biases toward a longer horizon, trading a fuller ready
// array — cheap, it stays cache-resident — for less overflow traffic.)
// Called only while the slots are empty, so no event needs re-bucketing.
func (w *wheelSched) retick() {
	if w.popped == 0 {
		return
	}
	gap := (w.lastPopT - w.baseT) / float64(w.popped)
	w.popped = 0
	if gap <= 0 {
		return
	}
	w.adjustTick(gap * (1 + 4*float64(w.len())/float64(len(w.slots))))
}

// fitSlots doubles the slot table until it covers the pending population
// or reaches maxSlots; the existing buckets keep their backing arrays.
// Only rebase calls it: ready and the slots are empty, so no event needs
// re-bucketing, and the stage drains against the widened horizon after.
func (w *wheelSched) fitSlots() {
	n := len(w.slots)
	for n < maxSlots && n < w.len() {
		n *= 2
	}
	if n > len(w.slots) {
		w.slots = append(w.slots, make([][]event, n-len(w.slots))...)
	}
}

// adjustTick clamps the proposed tick and limits the change to one
// doubling/halving per call so boundaries stay stable under noise.
func (w *wheelSched) adjustTick(t float64) {
	if t < minTick {
		t = minTick
	}
	if t > maxTick {
		t = maxTick
	}
	switch {
	case t > 2*w.tick:
		w.tick *= 2
	case t < w.tick/2:
		w.tick /= 2
	}
}

// respread rescues the degenerate case where the whole pending set
// clusters under the current slot (tick far too coarse — e.g. right
// after construction on a microsecond-scale workload): resize the tick
// from the cluster's actual span and re-place every ready event, turning
// the one overgrown array back into O(1) buckets. Slots are empty (the
// caller checked), so only ready needs re-placing.
func (w *wheelSched) respread() {
	// Whatever happens below, don't retry until ready doubles again — a
	// declined respread must not turn every subsequent push into an O(n)
	// scan. Rebases reset the threshold (see rebase).
	w.spillAt = 2 * (len(w.ready) - w.head)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := w.head; i < len(w.ready); i++ {
		if t := w.ready[i].t; !math.IsInf(t, 1) {
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
		}
	}
	if !(hi > lo) {
		return // one distinct finite timestamp (or none): sorted serving is optimal
	}
	span := (hi - lo) / float64(len(w.slots)-2)
	if span <= w.tick {
		return // already fine-grained; the cluster is genuinely dense
	}
	old := w.ready[w.head:]
	w.ready, w.head = nil, 0
	w.adjustTick(span)
	w.start = lo
	w.cursor = 0
	w.baseT = lo
	w.popped = 0
	w.recalc()
	for i := range old {
		w.place(old[i])
		old[i] = event{}
	}
	w.promote()
	w.spillAt = wheelSpill
}

// sortEvents sorts events ascending by (t, seq) in place: quicksort with
// median-of-three pivots and an insertion-sort base case. No allocation —
// it runs on the hot slot-merge path.
func sortEvents(a []event) {
	for len(a) > 24 {
		n := len(a)
		m := n / 2
		if a[m].less(a[0]) {
			a[m], a[0] = a[0], a[m]
		}
		if a[n-1].less(a[m]) {
			a[n-1], a[m] = a[m], a[n-1]
			if a[m].less(a[0]) {
				a[m], a[0] = a[0], a[m]
			}
		}
		pivot := a[m]
		i, j := 0, n-1
		for i <= j {
			for a[i].less(pivot) {
				i++
			}
			for pivot.less(a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger: O(log n)
		// stack depth even on adversarial inputs.
		if j < n-i {
			sortEvents(a[:j+1])
			a = a[i:]
		} else {
			sortEvents(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		ev := a[i]
		j := i - 1
		for j >= 0 && ev.less(a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = ev
	}
}
