// Package sppifo reimplements SP-PIFO (Alcoz et al., NSDI'20), one of the
// §3.2 case studies: an approximation of a PIFO (push-in first-out) queue
// using the strict-priority queues available in programmable switches.
//
// SP-PIFO's queue-bound adaptation is explicitly designed around the
// assumption that "given a rank distribution, the order in which packet
// ranks arrive is random". The paper's observation: an attacker can send
// packet sequences of particular ranks that violate that assumption,
// causing packets to be delayed or even dropped.
package sppifo

import "sort"

// Packet is one rank-carrying packet.
type Packet struct {
	ID   int
	Rank int
	// Victim marks packets whose scheduling quality the experiments
	// measure (the attacker's packets are not victims).
	Victim bool
}

// Queue is the scheduling interface shared by the PIFO reference and
// SP-PIFO.
type Queue interface {
	// Enqueue inserts a packet; it reports false on a (full) drop.
	Enqueue(p Packet) bool
	// Dequeue removes the next packet; ok is false when empty.
	Dequeue() (Packet, bool)
	// Len returns the number of queued packets.
	Len() int
}

// PIFO is the ideal reference: a perfect priority queue (lowest rank
// dequeues first, FIFO within equal ranks), unbounded.
type PIFO struct {
	items []Packet
	seq   int
	order []int // arrival sequence for FIFO tie-break
}

// Enqueue implements Queue.
func (q *PIFO) Enqueue(p Packet) bool {
	q.items = append(q.items, p)
	q.order = append(q.order, q.seq)
	q.seq++
	return true
}

// Dequeue implements Queue.
func (q *PIFO) Dequeue() (Packet, bool) {
	if len(q.items) == 0 {
		return Packet{}, false
	}
	best := 0
	for i := 1; i < len(q.items); i++ {
		if q.items[i].Rank < q.items[best].Rank ||
			(q.items[i].Rank == q.items[best].Rank && q.order[i] < q.order[best]) {
			best = i
		}
	}
	p := q.items[best]
	q.items = append(q.items[:best], q.items[best+1:]...)
	q.order = append(q.order[:best], q.order[best+1:]...)
	return p, true
}

// Len implements Queue.
func (q *PIFO) Len() int { return len(q.items) }

// SPPIFO approximates a PIFO with n strict-priority FIFO queues and the
// push-up/push-down bound adaptation of the paper:
//
//   - admission scans from the lowest-priority queue upward and enqueues
//     into the first queue whose bound is ≤ rank, then raises that bound
//     to the rank (push-up);
//   - if the rank undercuts every bound, the packet enters the
//     highest-priority queue and all bounds decrease by the undershoot
//     (push-down).
type SPPIFO struct {
	// PerQueueCap bounds each FIFO (0 = unbounded).
	PerQueueCap int
	// Admission, if set, observes every enqueue decision: pushDown is
	// true when the rank undercuts every bound and cost is the bound
	// decrease that push-down would apply (0 otherwise). Returning false
	// vetoes the packet: a vetoed push-down is dropped without collapsing
	// the bounds, a vetoed push-up is dropped without raising them — the
	// rank-inversion rate limiting of the §5 supervisor.
	Admission func(rank, cost int, pushDown bool) bool
	// PushDowns counts admissions that took (or, when Admission vetoed
	// the bound collapse, would have taken) the push-down path.
	PushDowns int
	bounds    []int
	queues    [][]Packet
	Drops     int
}

// New returns an SP-PIFO with n queues (queue 0 = highest priority).
func New(n, perQueueCap int) *SPPIFO {
	if n <= 0 {
		panic("sppifo: need at least one queue")
	}
	return &SPPIFO{
		PerQueueCap: perQueueCap,
		bounds:      make([]int, n),
		queues:      make([][]Packet, n),
	}
}

// Enqueue implements Queue.
func (q *SPPIFO) Enqueue(p Packet) bool {
	n := len(q.queues)
	for i := n - 1; i >= 0; i-- {
		if p.Rank >= q.bounds[i] {
			if q.Admission != nil && !q.Admission(p.Rank, 0, false) {
				q.Drops++
				return false
			}
			if !q.put(i, p) {
				return false
			}
			q.bounds[i] = p.Rank // push-up
			return true
		}
	}
	// Push-down: rank undercuts every bound.
	q.PushDowns++
	cost := q.bounds[0] - p.Rank
	if q.Admission != nil && !q.Admission(p.Rank, cost, true) {
		q.Drops++
		return false
	}
	for i := range q.bounds {
		q.bounds[i] -= cost
	}
	return q.put(0, p)
}

func (q *SPPIFO) put(i int, p Packet) bool {
	if q.PerQueueCap > 0 && len(q.queues[i]) >= q.PerQueueCap {
		q.Drops++
		return false
	}
	q.queues[i] = append(q.queues[i], p)
	return true
}

// Dequeue implements Queue: strict priority across queues, FIFO within.
func (q *SPPIFO) Dequeue() (Packet, bool) {
	for i := range q.queues {
		if len(q.queues[i]) > 0 {
			p := q.queues[i][0]
			q.queues[i] = q.queues[i][1:]
			return p, true
		}
	}
	return Packet{}, false
}

// Len implements Queue.
func (q *SPPIFO) Len() int {
	n := 0
	for _, qq := range q.queues {
		n += len(qq)
	}
	return n
}

// Unpifoness measures scheduling error of a dequeue order: for every pair
// (i, j) with i dequeued before j, it adds rank(i) − rank(j) when positive
// — the magnitude-weighted inversion count of the SP-PIFO paper, computed
// exactly in O(n log n) would be possible, but n here is small enough for
// the direct sum over inverted pairs.
func Unpifoness(order []Packet) int {
	total := 0
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if d := order[i].Rank - order[j].Rank; d > 0 {
				total += d
			}
		}
	}
	return total
}

// MeanVictimDelay returns the mean dequeue position displacement of
// victim packets relative to the ideal (rank-sorted) order — how much
// later the victim is served than it should be, in packets.
func MeanVictimDelay(order []Packet) float64 {
	ideal := append([]Packet(nil), order...)
	sort.SliceStable(ideal, func(a, b int) bool { return ideal[a].Rank < ideal[b].Rank })
	pos := map[int]int{}
	for i, p := range order {
		pos[p.ID] = i
	}
	var sum float64
	n := 0
	for i, p := range ideal {
		if !p.Victim {
			continue
		}
		d := pos[p.ID] - i
		if d > 0 {
			sum += float64(d)
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
