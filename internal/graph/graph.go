// Package graph implements the directed weighted graph, shortest-path, and
// path-enumeration algorithms shared by the network simulator (routing
// tables) and NetHide (topology obfuscation candidates).
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node within one Graph. IDs are dense: the i-th added
// node has ID i.
type NodeID int

// Edge is a directed weighted edge.
type Edge struct {
	From, To NodeID
	Weight   float64
}

// Graph is a directed weighted graph. The zero value is an empty graph
// ready for use. Undirected topologies are represented as two directed
// edges (AddBiEdge).
type Graph struct {
	names []string
	adj   [][]Edge
}

// AddNode adds a node with the given display name and returns its ID.
func (g *Graph) AddNode(name string) NodeID {
	g.names = append(g.names, name)
	g.adj = append(g.adj, nil)
	return NodeID(len(g.names) - 1)
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.names) }

// Name returns the display name of node id.
func (g *Graph) Name(id NodeID) string { return g.names[id] }

// NodeByName returns the first node with the given name, or (-1, false).
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	for i, n := range g.names {
		if n == name {
			return NodeID(i), true
		}
	}
	return -1, false
}

// AddEdge adds a directed edge. Weights must be non-negative (Dijkstra).
func (g *Graph) AddEdge(from, to NodeID, w float64) {
	if w < 0 {
		panic("graph: negative edge weight")
	}
	g.check(from)
	g.check(to)
	g.adj[from] = append(g.adj[from], Edge{From: from, To: to, Weight: w})
}

// AddBiEdge adds the edge in both directions with the same weight.
func (g *Graph) AddBiEdge(a, b NodeID, w float64) {
	g.AddEdge(a, b, w)
	g.AddEdge(b, a, w)
}

// Out returns the outgoing edges of node id. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Out(id NodeID) []Edge {
	g.check(id)
	return g.adj[id]
}

// HasEdge reports whether a direct edge from → to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	g.check(from)
	for _, e := range g.adj[from] {
		if e.To == to {
			return true
		}
	}
	return false
}

// Edges returns all directed edges in insertion order per node.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, es := range g.adj {
		out = append(out, es...)
	}
	return out
}

func (g *Graph) check(id NodeID) {
	if id < 0 || int(id) >= len(g.names) {
		panic(fmt.Sprintf("graph: node %d out of range (n=%d)", id, len(g.names)))
	}
}

// Path is a sequence of node IDs from source to destination, inclusive.
type Path []NodeID

// Len returns the hop count (number of edges) of the path.
func (p Path) Len() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Weight returns the total weight of the path in g, or +Inf if the path
// uses a non-existent edge. Parallel edges use the minimum weight.
func (p Path) Weight(g *Graph) float64 {
	total := 0.0
	for i := 0; i+1 < len(p); i++ {
		w := math.Inf(1)
		for _, e := range g.Out(p[i]) {
			if e.To == p[i+1] && e.Weight < w {
				w = e.Weight
			}
		}
		if math.IsInf(w, 1) {
			return w
		}
		total += w
	}
	return total
}
