package nethide

import (
	"sort"

	"dui/internal/graph"
	"dui/internal/stats"
)

// Config parameterizes the obfuscation search.
type Config struct {
	// DensityCap is the security requirement: no virtual link may carry
	// more than this many pair-paths. NetHide "limits the amount of
	// lying to the minimum required to meet the security requirements".
	DensityCap int
}

// The obfuscation search's bounds.
const (
	// pathCandidates is the number of alternative (k-shortest
	// loop-free) paths considered per rerouted pair.
	pathCandidates int = 8
	// sweeps bounds the greedy improvement rounds.
	sweeps int = 50
)

// Obfuscate computes a virtual path map whose maximum flow density
// respects cfg.DensityCap while keeping accuracy and utility as high as
// possible. The original NetHide solves an ILP; this implementation uses
// the same candidate structure (k-shortest physical paths per pair) with
// a greedy hottest-link-first search, which preserves the trade-off shape
// the experiments measure: lower density caps cost accuracy.
func Obfuscate(g *graph.Graph, pairs []Pair, cfg Config, rng *stats.RNG) (PathMap, Metrics) {
	phys := ShortestPaths(g, pairs)
	virt := PathMap{}
	for k, v := range phys {
		virt[k] = v
	}
	if cfg.DensityCap <= 0 {
		return virt, Evaluate(phys, virt)
	}

	candCache := map[Pair][]graph.Path{}
	candidates := func(p Pair) []graph.Path {
		if c, ok := candCache[p]; ok {
			return c
		}
		c := g.KShortestPaths(p.Src, p.Dst, pathCandidates)
		candCache[p] = c
		return c
	}

	// Incrementally maintained link densities of the virtual topology.
	fd := map[linkID]int{}
	for _, path := range virt {
		addPath(fd, path, +1)
	}
	hottest := func() (linkID, int) {
		links := make([]linkID, 0, len(fd))
		for l := range fd {
			links = append(links, l)
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].A != links[j].A {
				return links[i].A < links[j].A
			}
			return links[i].B < links[j].B
		})
		var best linkID
		bestN := 0
		for _, l := range links {
			if fd[l] > bestN {
				best, bestN = l, fd[l]
			}
		}
		return best, bestN
	}

	for sweep := 0; sweep < sweeps; sweep++ {
		if _, density := hottest(); density <= cfg.DensityCap {
			break
		}
		movedSweep := 0
		// Cool every over-cap link, hottest first; a sweep that moves
		// nothing anywhere is a fixed point.
		for _, hot := range overCap(fd, cfg.DensityCap) {
			// Collect the pairs crossing the hottest link, in deterministic
			// order, and move the cheapest-to-move ones off it. A move is
			// only accepted if it creates no new cap violation — this keeps
			// the search monotone (no ping-pong between two hot links).
			var crossing []Pair
			for pair, path := range virt {
				if pathHasLink(path, hot) {
					crossing = append(crossing, pair)
				}
			}
			sort.Slice(crossing, func(i, j int) bool {
				if crossing[i].Src != crossing[j].Src {
					return crossing[i].Src < crossing[j].Src
				}
				return crossing[i].Dst < crossing[j].Dst
			})
			type move struct {
				pair Pair
				path graph.Path
				cost float64
			}
			var moves []move
			for _, pair := range crossing {
				best := move{cost: 2}
				for _, cand := range candidates(pair) {
					if pathHasLink(cand, hot) {
						continue
					}
					cost := 1 - jaccardLinks(phys[pair], cand)
					if cost < best.cost {
						best = move{pair: pair, path: cand, cost: cost}
					}
				}
				if best.path != nil {
					moves = append(moves, best)
				}
			}
			sort.SliceStable(moves, func(i, j int) bool { return moves[i].cost < moves[j].cost })
			for _, mv := range moves {
				if fd[hot] <= cfg.DensityCap {
					break
				}
				if excessDelta(fd, virt[mv.pair], mv.path, cfg.DensityCap) >= 0 {
					continue
				}
				addPath(fd, virt[mv.pair], -1)
				addPath(fd, mv.path, +1)
				virt[mv.pair] = mv.path
				movedSweep++
			}
		}
		if movedSweep == 0 {
			break // no move reduces the total cap excess any further
		}
	}
	return virt, Evaluate(phys, virt)
}

// addPath adjusts link densities by delta for every link of the path.
func addPath(fd map[linkID]int, p graph.Path, delta int) {
	for i := 0; i+1 < len(p); i++ {
		fd[mkLink(p[i], p[i+1])] += delta
	}
}

// excessDelta returns the change in the potential Σ_l max(0, fd[l]−cap)²
// caused by replacing old with cand. Moves are only accepted when this is
// strictly negative, which makes the search monotone: no ping-pong between
// hot links is possible, and mutually over-cap links can still trade load
// (one getting slightly hotter is fine if another cools more).
func excessDelta(fd map[linkID]int, old, cand graph.Path, cap int) int {
	delta := map[linkID]int{}
	for i := 0; i+1 < len(old); i++ {
		delta[mkLink(old[i], old[i+1])]--
	}
	for i := 0; i+1 < len(cand); i++ {
		delta[mkLink(cand[i], cand[i+1])]++
	}
	total := 0
	for l, d := range delta {
		if d == 0 {
			continue
		}
		before := excessSq(fd[l], cap)
		after := excessSq(fd[l]+d, cap)
		total += after - before
	}
	return total
}

func excessSq(n, cap int) int {
	e := n - cap
	if e <= 0 {
		return 0
	}
	return e * e
}

func pathHasLink(p graph.Path, l linkID) bool {
	for i := 0; i+1 < len(p); i++ {
		if mkLink(p[i], p[i+1]) == l {
			return true
		}
	}
	return false
}

// MaliciousTopology is the §4.3 attack: a malicious operator is not bound
// by NetHide's accuracy/utility objectives and presents an arbitrary lie.
// This implementation hides a chosen link entirely by rerouting every
// pair crossing it through decoy paths in a copy of the graph with the
// link removed, regardless of the accuracy cost.
func MaliciousTopology(g *graph.Graph, pairs []Pair, hideA, hideB graph.NodeID) PathMap {
	phys := ShortestPaths(g, pairs)
	// Build the lie on a graph without the hidden link.
	lieGraph := &graph.Graph{}
	for i := 0; i < g.N(); i++ {
		lieGraph.AddNode(g.Name(graph.NodeID(i)))
	}
	hidden := mkLink(hideA, hideB)
	for _, e := range g.Edges() {
		if mkLink(e.From, e.To) == hidden {
			continue
		}
		lieGraph.AddEdge(e.From, e.To, e.Weight)
	}
	virt := PathMap{}
	for pair, path := range phys {
		if !pathHasLink(path, hidden) {
			virt[pair] = path
			continue
		}
		if lie := lieGraph.ShortestPath(pair.Src, pair.Dst); lie != nil {
			virt[pair] = lie
		} else {
			virt[pair] = path // disconnected without the link: keep truth
		}
	}
	return virt
}

// overCap returns the links above the cap, hottest first (deterministic).
func overCap(fd map[linkID]int, cap int) []linkID {
	var out []linkID
	for l, d := range fd {
		if d > cap {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if fd[out[i]] != fd[out[j]] {
			return fd[out[i]] > fd[out[j]]
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
