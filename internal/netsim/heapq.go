package netsim

// eventHeap is the engine's event queue: a value-typed 4-ary min-heap
// over event structs. Scheduling allocates nothing in steady state (the
// backing array is reused across push/pop), and the (t, seq) key is a
// total order, so pop order is independent of heap shape.
type eventHeap []event

// push appends ev and sifts it up the 4-ary heap.
func (h *eventHeap) push(ev event) {
	pq := append(*h, ev)
	i := len(pq) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !pq[i].Before(pq[p].Key) {
			break
		}
		pq[i], pq[p] = pq[p], pq[i]
		i = p
	}
	*h = pq
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	pq := *h
	top := pq[0]
	n := len(pq) - 1
	pq[0] = pq[n]
	pq[n] = event{} // drop the fn reference so the closure can be collected
	*h = pq[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

// siftDown restores heap order below index i. A 4-ary layout halves the
// tree depth of the binary heap and keeps the four children of a node in
// one or two cache lines.
func (h *eventHeap) siftDown(i int) {
	pq := *h
	n := len(pq)
	for {
		c := 4*i + 1
		if c >= n {
			return
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if pq[j].Before(pq[best].Key) {
				best = j
			}
		}
		if !pq[best].Before(pq[i].Key) {
			return
		}
		pq[i], pq[best] = pq[best], pq[i]
		i = best
	}
}

// peek reports the minimum event's key without removing it; ok is false
// when the heap is empty.
func (h eventHeap) peek() (Key, bool) {
	if len(h) == 0 {
		return Key{}, false
	}
	return h[0].Key, true
}
