package graph

import (
	"math"
	"sort"
)

// ShortestTree holds the result of a single-source shortest-path
// computation: per-node distance and predecessor.
type ShortestTree struct {
	Source NodeID
	Dist   []float64
	Prev   []NodeID // -1 where unreachable or source
}

// Dijkstra computes shortest paths from src over non-negative edge weights.
func (g *Graph) Dijkstra(src NodeID) *ShortestTree {
	g.check(src)
	n := g.N()
	t := &ShortestTree{Source: src, Dist: make([]float64, n), Prev: make([]NodeID, n)}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Prev[i] = -1
	}
	t.Dist[src] = 0
	pq := distHeap{{node: src, dist: 0}}
	for len(pq) > 0 {
		it := pq.pop()
		if it.dist > t.Dist[it.node] {
			continue // stale entry
		}
		for _, e := range g.adj[it.node] {
			nd := it.dist + e.Weight
			if nd < t.Dist[e.To] {
				t.Dist[e.To] = nd
				t.Prev[e.To] = it.node
				pq.push(distItem{node: e.To, dist: nd})
			}
		}
	}
	return t
}

// PathTo reconstructs the path from the tree's source to dst, or nil if dst
// is unreachable.
func (t *ShortestTree) PathTo(dst NodeID) Path {
	if math.IsInf(t.Dist[dst], 1) {
		return nil
	}
	var rev []NodeID
	for at := dst; at != -1; at = t.Prev[at] {
		rev = append(rev, at)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// FirstHop returns the node after the source on PathTo(dst) without
// building the path. ok is false when that path has fewer than two nodes:
// dst is unreachable, or dst is the source.
func (t *ShortestTree) FirstHop(dst NodeID) (hop NodeID, ok bool) {
	if dst == t.Source || math.IsInf(t.Dist[dst], 1) {
		return -1, false
	}
	for t.Prev[dst] != t.Source {
		dst = t.Prev[dst]
	}
	return dst, true
}

// ShortestPath returns a shortest path from src to dst, or nil if
// unreachable.
func (g *Graph) ShortestPath(src, dst NodeID) Path {
	return g.Dijkstra(src).PathTo(dst)
}

// KShortestPaths returns up to k loop-free paths from src to dst in order
// of increasing weight (Yen's algorithm). It returns fewer than k paths if
// fewer exist.
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	first := g.ShortestPath(src, dst)
	if first == nil || k <= 0 {
		return nil
	}
	paths := []Path{first}
	var candidates []candidate
	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]
			// Build a filtered graph: remove edges used by previous paths
			// sharing this root, and remove root-path nodes (except spur).
			banned := map[[2]NodeID]bool{}
			for _, p := range paths {
				if len(p) > i && Path(p[:i+1]).Equal(rootPath) && len(p) > i+1 {
					banned[[2]NodeID{p[i], p[i+1]}] = true
				}
			}
			removed := map[NodeID]bool{}
			for _, n := range rootPath[:len(rootPath)-1] {
				removed[n] = true
			}
			sub := g.filtered(banned, removed)
			spur := sub.ShortestPath(spurNode, dst)
			if spur == nil {
				continue
			}
			total := append(append(Path{}, rootPath[:len(rootPath)-1]...), spur...)
			candidates = addCandidate(candidates, candidate{path: total, weight: total.Weight(g)})
		}
		if len(candidates) == 0 {
			break
		}
		// Pop the lightest unused candidate.
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].weight < candidates[b].weight })
		next := candidates[0]
		candidates = candidates[1:]
		dup := false
		for _, p := range paths {
			if p.Equal(next.path) {
				dup = true
				break
			}
		}
		if !dup {
			paths = append(paths, next.path)
		}
	}
	return paths
}

type candidate struct {
	path   Path
	weight float64
}

func addCandidate(cs []candidate, c candidate) []candidate {
	for _, e := range cs {
		if e.path.Equal(c.path) {
			return cs
		}
	}
	return append(cs, c)
}

// filtered returns a copy of g without the banned edges and without any
// edges touching removed nodes.
func (g *Graph) filtered(banned map[[2]NodeID]bool, removed map[NodeID]bool) *Graph {
	c := &Graph{names: g.names, adj: make([][]Edge, len(g.adj))}
	for i, es := range g.adj {
		if removed[NodeID(i)] {
			continue
		}
		for _, e := range es {
			if removed[e.To] || banned[[2]NodeID{e.From, e.To}] {
				continue
			}
			c.adj[i] = append(c.adj[i], e)
		}
	}
	return c
}

type distItem struct {
	node NodeID
	dist float64
}

// distHeap is a binary min-heap on dist. push and pop are
// container/heap's Push and Pop — the same sift steps in the same order,
// so equal-distance entries pop in the same sequence and Dijkstra picks
// the same predecessors — on the concrete type, so no item is boxed.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *distHeap) pop() distItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
