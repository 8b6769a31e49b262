package trace

import (
	"container/heap"
	"testing"
	"unsafe"

	"dui/internal/stats"
)

// The tests here pin the claim of flowHeap and merge that their
// hand-written sifts reproduce container/heap exactly — the same heap
// layout and the same pop order — even when many keys are exactly equal,
// where any change in comparison order would show as a different order
// among tied elements. The references are container/heap itself.

// TestFlowStateSize pins the flow heap's element at 40 bytes: a PoP run
// holds a million of them, and every sift level moves one.
func TestFlowStateSize(t *testing.T) {
	if got := unsafe.Sizeof(flowState{}); got != 40 {
		t.Fatalf("flowState is %d bytes, want 40", got)
	}
}

// refFlowHeap is flowHeap's container/heap reference.
type refFlowHeap []flowState

func (h refFlowHeap) Len() int           { return len(h) }
func (h refFlowHeap) Less(i, j int) bool { return h[i].next < h[j].next }
func (h refFlowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refFlowHeap) Push(x any)        { *h = append(*h, x.(flowState)) }
func (h *refFlowHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// tiedKey draws a key from only four values, so most comparisons tie.
func tiedKey(r *stats.RNG) float64 { return float64(r.IntN(4)) }

// TestFlowHeapMatchesContainerHeapUnderTies drives a flowHeap and its
// container/heap reference through the operations the generators use —
// heapify, push, a root key change followed by siftDown (heap.Fix(h, 0)),
// and pop — on heavily tied keys, and compares the whole layout after
// every operation. seq is a unique id, so tied elements are told apart.
func TestFlowHeapMatchesContainerHeapUnderTies(t *testing.T) {
	r := stats.NewRNG(11)
	var got flowHeap
	var ref refFlowHeap
	for i := 0; i < 300; i++ {
		f := flowState{seq: uint32(i), next: tiedKey(r)}
		got = append(got, f)
		ref = append(ref, f)
	}
	got.init()
	heap.Init(&ref)
	id := uint32(len(got))
	same := func(step int, op string) {
		t.Helper()
		if len(got) != len(ref) {
			t.Fatalf("step %d (%s): %d elements, reference %d", step, op, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("step %d (%s): slot %d holds flow %d, reference flow %d", step, op, i, got[i].seq, ref[i].seq)
			}
		}
	}
	same(0, "init")
	for step := 1; step <= 5000; step++ {
		switch op := r.IntN(4); {
		case op == 0:
			f := flowState{seq: id, next: tiedKey(r)}
			id++
			got.push(f)
			heap.Push(&ref, f)
			same(step, "push")
		case op == 1 && len(got) > 1:
			// container/heap.Pop as merge does it: swap root and last,
			// sift the new root within the shorter heap, shrink.
			n := len(got) - 1
			got[0], got[n] = got[n], got[0]
			got.siftDown(0, n)
			popped := got[n]
			got = got[:n]
			if want := heap.Pop(&ref).(flowState); popped != want {
				t.Fatalf("step %d: popped flow %d, reference flow %d", step, popped.seq, want.seq)
			}
			same(step, "pop")
		default:
			k := tiedKey(r)
			got[0].next, ref[0].next = k, k
			got.siftDown(0, len(got))
			heap.Fix(&ref, 0)
			same(step, "fix root")
		}
	}
}

// tiedStream emits n events at times i/ties (integer division), so
// consecutive events of one stream, and events of different streams, tie
// exactly. FlowHash carries (stream, index) to identify each event.
type tiedStream struct {
	id, i, n, ties int
}

func (s *tiedStream) Next() (Event, bool) {
	if s.i >= s.n {
		return Event{}, false
	}
	ev := Event{Time: float64(s.i / s.ties), FlowHash: uint64(s.id)<<32 | uint64(s.i)}
	s.i++
	return ev, true
}

// refMerge is merge written with container/heap: the same lazy-refill
// discipline, with heap.Fix for a refilled root and heap.Pop for an
// exhausted one.
type refMerge struct {
	h       refMergeHeap
	pending Stream
}

type refMergeHeap []mergeItem

func (h refMergeHeap) Len() int           { return len(h) }
func (h refMergeHeap) Less(i, j int) bool { return h[i].ev.Time < h[j].ev.Time }
func (h refMergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refMergeHeap) Push(x any)        { *h = append(*h, x.(mergeItem)) }
func (h *refMergeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (m *refMerge) Next() (Event, bool) {
	if m.pending != nil {
		src := m.pending
		m.pending = nil
		if ev, ok := src.Next(); ok {
			m.h[0] = mergeItem{ev: ev, src: src}
			heap.Fix(&m.h, 0)
		} else {
			heap.Pop(&m.h)
		}
	}
	if len(m.h) == 0 {
		return Event{}, false
	}
	m.pending = m.h[0].src
	return m.h[0].ev, true
}

// TestMergeMatchesContainerHeapUnderTies compares Merge's emission order
// with the container/heap reference over 40 streams of unequal length
// whose event times tie within and across streams.
func TestMergeMatchesContainerHeapUnderTies(t *testing.T) {
	streams := func() []Stream {
		var out []Stream
		for id := 0; id < 40; id++ {
			out = append(out, &tiedStream{id: id, n: 20 + 7*(id%5), ties: 1 + id%3})
		}
		return out
	}
	got := Merge(streams()...)
	ref := &refMerge{}
	for _, s := range streams() {
		if ev, ok := s.Next(); ok {
			ref.h = append(ref.h, mergeItem{ev: ev, src: s})
		}
	}
	heap.Init(&ref.h)
	for i := 0; ; i++ {
		g, gok := got.Next()
		w, wok := ref.Next()
		if gok != wok {
			t.Fatalf("event %d: Merge ok=%v, reference ok=%v", i, gok, wok)
		}
		if !gok {
			if i < 1000 {
				t.Fatalf("only %d events merged", i)
			}
			return
		}
		if g.FlowHash != w.FlowHash || g.Time != w.Time {
			t.Fatalf("event %d: Merge emitted stream %d event %d at t=%g, reference stream %d event %d at t=%g",
				i, g.FlowHash>>32, g.FlowHash&0xffffffff, g.Time, w.FlowHash>>32, w.FlowHash&0xffffffff, w.Time)
		}
	}
}
