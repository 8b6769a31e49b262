package graph

import (
	"math"
	"testing"
	"testing/quick"

	"dui/internal/stats"
)

func diamond() (*Graph, []NodeID) {
	g := &Graph{}
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddEdge(a, b, 1)
	g.AddEdge(a, c, 2)
	g.AddEdge(b, d, 2)
	g.AddEdge(c, d, 1)
	g.AddEdge(a, d, 10)
	return g, []NodeID{a, b, c, d}
}

func TestDijkstraDiamond(t *testing.T) {
	g, n := diamond()
	tr := g.Dijkstra(n[0])
	if tr.Dist[n[3]] != 3 {
		t.Fatalf("dist = %v", tr.Dist[n[3]])
	}
	p := tr.PathTo(n[3])
	if len(p) != 3 || p[0] != n[0] || p[2] != n[3] {
		t.Fatalf("path = %v", p)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := &Graph{}
	a := g.AddNode("a")
	b := g.AddNode("b")
	tr := g.Dijkstra(a)
	if !math.IsInf(tr.Dist[b], 1) {
		t.Fatal("b should be unreachable")
	}
	if tr.PathTo(b) != nil {
		t.Fatal("path to unreachable node should be nil")
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	g, n := diamond()
	ps := g.KShortestPaths(n[0], n[3], 5)
	if len(ps) != 3 {
		t.Fatalf("got %d paths, want 3: %v", len(ps), ps)
	}
	// Weights must be non-decreasing: 3, 3, 10.
	w := []float64{ps[0].Weight(g), ps[1].Weight(g), ps[2].Weight(g)}
	if w[0] != 3 || w[1] != 3 || w[2] != 10 {
		t.Fatalf("weights = %v", w)
	}
	// All paths must be distinct and loop-free.
	for i := range ps {
		seen := map[NodeID]bool{}
		for _, x := range ps[i] {
			if seen[x] {
				t.Fatalf("path %v has a loop", ps[i])
			}
			seen[x] = true
		}
		for j := i + 1; j < len(ps); j++ {
			if ps[i].Equal(ps[j]) {
				t.Fatalf("duplicate paths %v", ps[i])
			}
		}
	}
}

func TestKShortestOrderedProperty(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 20; trial++ {
		g := RandomConnected(12, 10, rng.Child())
		ps := g.KShortestPaths(0, NodeID(g.N()-1), 6)
		if len(ps) == 0 {
			t.Fatal("connected graph must have a path")
		}
		prev := 0.0
		for i, p := range ps {
			if p[0] != 0 || p[len(p)-1] != NodeID(g.N()-1) {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			w := p.Weight(g)
			if w < prev-1e-9 {
				t.Fatalf("trial %d: path %d weight %v < previous %v", trial, i, w, prev)
			}
			prev = w
		}
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{1, 2, 3}
	if p.Len() != 2 || !p.Equal(Path{1, 2, 3}) || p.Equal(Path{1, 2}) {
		t.Fatal("path basics")
	}
	if (Path{}).Len() != 0 {
		t.Fatal("empty path length")
	}
}

func TestPathWeightMissingEdge(t *testing.T) {
	g, n := diamond()
	if !math.IsInf(Path{n[1], n[0]}.Weight(g), 1) {
		t.Fatal("reverse edge should be missing")
	}
}

func TestNegativeWeightPanics(t *testing.T) {
	g := &Graph{}
	a, b := g.AddNode("a"), g.AddNode("b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(a, b, -1)
}

func TestNodeByName(t *testing.T) {
	g := Abilene()
	if id, ok := g.NodeByName("CHI"); !ok || g.Name(id) != "CHI" {
		t.Fatal("NodeByName")
	}
	if _, ok := g.NodeByName("nope"); ok {
		t.Fatal("found nonexistent node")
	}
}

// Connected reports whether every node is reachable from node 0 treating
// edges as given (directed reachability).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	t := g.Dijkstra(0)
	for _, d := range t.Dist {
		if math.IsInf(d, 1) {
			return false
		}
	}
	return true
}

func TestAbileneConnectedAndSymmetric(t *testing.T) {
	g := Abilene()
	if g.N() != 11 {
		t.Fatalf("n = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("Abilene must be connected")
	}
	for _, e := range g.Edges() {
		if !g.HasEdge(e.To, e.From) {
			t.Fatalf("asymmetric edge %v", e)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	g := FatTree(4)
	// 4 core + 4 pods * (2 agg + 2 edge) = 20 nodes.
	if g.N() != 20 {
		t.Fatalf("n = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("fat-tree must be connected")
	}
	// Each directed edge count: pods*half*half links*2 (agg-edge) + same
	// (agg-core), each bidirectional: 2*(4*2*2)*2 = 64.
	if len(g.Edges()) != 64 {
		t.Fatalf("edges = %d", len(g.Edges()))
	}
}

func TestFatTreePanicsOnOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FatTree(3)
}

func TestRandomConnectedProperty(t *testing.T) {
	rng := stats.NewRNG(1)
	if err := quick.Check(func(nRaw, eRaw uint8) bool {
		n := int(nRaw%30) + 1
		g := RandomConnected(n, int(eRaw%20), rng.Child())
		return g.N() == n && g.Connected()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLine(t *testing.T) {
	l := Line(4)
	p := l.ShortestPath(0, 3)
	if len(p) != 4 {
		t.Fatalf("line path = %v", p)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := &Graph{}
	g.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Out(5)
}
