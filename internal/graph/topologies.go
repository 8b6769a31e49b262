package graph

import (
	"fmt"

	"dui/internal/stats"
)

// The constructors below build the evaluation topologies used by the
// NetHide and Blink experiments. All return undirected (bidirectional)
// graphs with unit weights unless noted.

// Abilene returns a graph shaped like the 11-node Abilene research backbone,
// the canonical small-WAN evaluation topology.
func Abilene() *Graph {
	g := &Graph{}
	names := []string{
		"SEA", "SNV", "LAX", "DEN", "KSC", "HOU", "IPL", "CHI", "ATL", "WDC", "NYC",
	}
	ids := make([]NodeID, len(names))
	for i, n := range names {
		ids[i] = g.AddNode(n)
	}
	links := [][2]int{
		{0, 1}, {0, 3}, {1, 2}, {1, 3}, {2, 5}, {3, 4}, {4, 5}, {4, 6},
		{5, 8}, {6, 7}, {7, 10}, {8, 9}, {8, 6}, {9, 10}, {9, 7},
	}
	for _, l := range links {
		g.AddBiEdge(ids[l[0]], ids[l[1]], 1)
	}
	return g
}

// FatTree returns a k-ary fat-tree data-center topology (k even): (k/2)^2
// core switches, k pods of k/2 aggregation + k/2 edge switches. Hosts are
// not included; edge switches are the leaves.
func FatTree(k int) *Graph {
	if k < 2 || k%2 != 0 {
		panic("graph: fat-tree k must be even and >= 2")
	}
	g := &Graph{}
	half := k / 2
	core := make([]NodeID, half*half)
	for i := range core {
		core[i] = g.AddNode(fmt.Sprintf("core%d", i))
	}
	for p := 0; p < k; p++ {
		agg := make([]NodeID, half)
		edge := make([]NodeID, half)
		for i := 0; i < half; i++ {
			agg[i] = g.AddNode(fmt.Sprintf("agg%d-%d", p, i))
			edge[i] = g.AddNode(fmt.Sprintf("edge%d-%d", p, i))
		}
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				g.AddBiEdge(agg[i], edge[j], 1)
				g.AddBiEdge(agg[i], core[i*half+j], 1)
			}
		}
	}
	return g
}

// RandomConnected returns a random connected graph with n nodes and
// approximately extra additional edges beyond a random spanning tree. It is
// deterministic given the RNG state.
func RandomConnected(n, extra int, rng *stats.RNG) *Graph {
	if n <= 0 {
		panic("graph: need at least one node")
	}
	g := &Graph{}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	// Random spanning tree: connect each node i>0 to a random earlier node.
	order := rng.Perm(n)
	for i := 1; i < n; i++ {
		j := order[rng.IntN(i)]
		g.AddBiEdge(ids[order[i]], ids[j], 1)
	}
	for e := 0; e < extra; e++ {
		a, b := rng.IntN(n), rng.IntN(n)
		if a == b || g.HasEdge(ids[a], ids[b]) {
			continue
		}
		g.AddBiEdge(ids[a], ids[b], 1)
	}
	return g
}

// Line returns a chain of n nodes, useful for traceroute tests.
func Line(n int) *Graph {
	g := &Graph{}
	prev := NodeID(-1)
	for i := 0; i < n; i++ {
		id := g.AddNode(fmt.Sprintf("h%d", i))
		if prev >= 0 {
			g.AddBiEdge(prev, id, 1)
		}
		prev = id
	}
	return g
}
