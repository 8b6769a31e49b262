// Package nethide reimplements the topology-obfuscation core of NetHide
// (Meier et al., USENIX Security'18), the system §4.3 of the paper builds
// on. Traceroute reconstructs topology from ICMP time-exceeded replies
// that are not authenticated, so whoever answers the probes decides what
// topology the prober learns. NetHide uses this defensively: it computes a
// *virtual* topology that hides high-flow-density links (the targets of
// link-flooding DDoS) while staying as close as possible to the physical
// one, and answers traceroute accordingly. The same mechanism in a
// malicious operator's hands presents arbitrarily wrong topologies — the
// §4.3 attack.
package nethide

import (
	"sort"

	"dui/internal/graph"
)

// Pair is one source–destination pair whose path is observable by
// traceroute.
type Pair struct{ Src, Dst graph.NodeID }

// AllPairs enumerates every ordered pair of distinct nodes.
func AllPairs(g *graph.Graph) []Pair {
	var out []Pair
	for s := 0; s < g.N(); s++ {
		for d := 0; d < g.N(); d++ {
			if s != d {
				out = append(out, Pair{graph.NodeID(s), graph.NodeID(d)})
			}
		}
	}
	return out
}

// PathMap assigns a routing path to each pair — a (physical or virtual)
// topology as traceroute perceives it.
type PathMap map[Pair]graph.Path

// ShortestPaths computes the physical path map (per-source Dijkstra).
func ShortestPaths(g *graph.Graph, pairs []Pair) PathMap {
	pm := PathMap{}
	trees := map[graph.NodeID]*graph.ShortestTree{}
	for _, p := range pairs {
		t := trees[p.Src]
		if t == nil {
			t = g.Dijkstra(p.Src)
			trees[p.Src] = t
		}
		if path := t.PathTo(p.Dst); path != nil {
			pm[p] = path
		}
	}
	return pm
}

// linkID canonicalizes an undirected link.
type linkID struct{ A, B graph.NodeID }

func mkLink(a, b graph.NodeID) linkID {
	if a > b {
		a, b = b, a
	}
	return linkID{a, b}
}

// FlowDensity counts, for every undirected link, how many pair paths
// traverse it — NetHide's security metric: the higher a link's flow
// density, the more damage a link-flooding attack on it causes, and the
// easier it is for an attacker to find.
func (pm PathMap) FlowDensity() map[linkID]int {
	fd := map[linkID]int{}
	for _, path := range pm {
		for i := 0; i+1 < len(path); i++ {
			fd[mkLink(path[i], path[i+1])]++
		}
	}
	return fd
}

// MaxDensity returns the hottest link and its density (zero value when
// the map is empty). Ties break toward the smaller link ID so results are
// deterministic.
func (pm PathMap) MaxDensity() (linkID, int) {
	fd := pm.FlowDensity()
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

// Metrics are NetHide's quality measures for a virtual topology relative
// to the physical one.
type Metrics struct {
	// Accuracy is the mean per-pair path similarity (shared links over
	// union, Jaccard): how truthful the virtual topology remains.
	Accuracy float64
	// Utility is 1 − mean relative hop-count error: whether traceroute
	// remains useful for debugging (distances roughly preserved).
	Utility float64
	// MaxDensityPhys / MaxDensityVirt are the hottest-link densities of
	// the two topologies as an attacker would compute them.
	MaxDensityPhys, MaxDensityVirt int
}

// Evaluate computes the metrics of virt against phys. Pairs are visited
// in sorted order so the floating-point sums are bit-reproducible (map
// iteration order would perturb the last bit from run to run).
func Evaluate(phys, virt PathMap) Metrics {
	var m Metrics
	var accSum, utilSum float64
	n := 0
	pairs := make([]Pair, 0, len(phys))
	for pair := range phys {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	for _, pair := range pairs {
		p := phys[pair]
		v, ok := virt[pair]
		if !ok {
			continue
		}
		accSum += jaccardLinks(p, v)
		dl := float64(abs(p.Len() - v.Len()))
		den := float64(p.Len())
		if den == 0 {
			den = 1
		}
		utilSum += 1 - dl/den
		n++
	}
	if n > 0 {
		m.Accuracy = accSum / float64(n)
		m.Utility = utilSum / float64(n)
	}
	_, m.MaxDensityPhys = phys.MaxDensity()
	_, m.MaxDensityVirt = virt.MaxDensity()
	return m
}

func jaccardLinks(a, b graph.Path) float64 {
	set := map[linkID]int{}
	for i := 0; i+1 < len(a); i++ {
		set[mkLink(a[i], a[i+1])] |= 1
	}
	for i := 0; i+1 < len(b); i++ {
		set[mkLink(b[i], b[i+1])] |= 2
	}
	inter, union := 0, 0
	for _, v := range set {
		union++
		if v == 3 {
			inter++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
