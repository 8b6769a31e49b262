package graph

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"dui/internal/stats"
)

// refHeap is a container/heap min-heap on dist: the reference for the
// order in which distHeap pops equal-distance entries.
type refHeap []distItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refDijkstra is Dijkstra over refHeap.
func refDijkstra(g *Graph, src NodeID) *ShortestTree {
	n := g.N()
	t := &ShortestTree{Source: src, Dist: make([]float64, n), Prev: make([]NodeID, n)}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Prev[i] = -1
	}
	t.Dist[src] = 0
	pq := &refHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.dist > t.Dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			if nd := it.dist + e.Weight; nd < t.Dist[e.To] {
				t.Dist[e.To] = nd
				t.Prev[e.To] = it.node
				heap.Push(pq, distItem{node: e.To, dist: nd})
			}
		}
	}
	return t
}

// On random graphs with small integer weights — so equal-cost paths, and
// with them heap ties, are everywhere — Dijkstra must pick exactly the
// predecessors the container/heap version picked, and FirstHop must agree
// with PathTo.
func TestDijkstraMatchesContainerHeapOnTies(t *testing.T) {
	rng := stats.NewRNG(0x7135)
	for trial := 0; trial < 200; trial++ {
		g := &Graph{}
		n := 2 + rng.IntN(30)
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprint(i))
		}
		for e := rng.IntN(4 * n); e > 0; e-- {
			g.AddEdge(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)), float64(rng.IntN(3)))
		}
		for src := NodeID(0); int(src) < n; src++ {
			got, want := g.Dijkstra(src), refDijkstra(g, src)
			for v := NodeID(0); int(v) < n; v++ {
				if got.Prev[v] != want.Prev[v] || got.Dist[v] != want.Dist[v] {
					t.Fatalf("trial %d src %d node %d: prev/dist %d/%g, want %d/%g",
						trial, src, v, got.Prev[v], got.Dist[v], want.Prev[v], want.Dist[v])
				}
				path := got.PathTo(v)
				hop, ok := got.FirstHop(v)
				if ok != (len(path) >= 2) || (ok && hop != path[1]) {
					t.Fatalf("trial %d src %d: FirstHop(%d) = %d, %v; path %v", trial, src, v, hop, ok, path)
				}
			}
		}
	}
}
