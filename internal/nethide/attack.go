package nethide

import "dui/internal/graph"

// AttackOutcome evaluates a link-flooding adversary who plans against the
// topology view traceroute gives her — the scenario NetHide defends
// against, and the §4.3 situational-awareness casualty when the operator
// is the liar.
type AttackOutcome struct {
	// TargetVirt is the hottest link in the attacker's (virtual) view.
	TargetVirt linkID
	// FloodPairs is how many pairs the attacker floods (those whose
	// virtual paths cross the target).
	FloodPairs int
	// AchievedDensity is the maximum number of the attacker's flows
	// that actually share one physical link — the real damage.
	AchievedDensity int
	// OptimalDensity is what an attacker with ground-truth knowledge
	// achieves (flooding the physically hottest link).
	OptimalDensity int
	// Success is Achieved/Optimal ∈ [0,1].
	Success float64
}

// EvaluateAttack plans a link-flooding attack from the view topology and
// measures its effect on the physical topology. The attacker floods every
// pair the plan picks.
func EvaluateAttack(phys, view PathMap) AttackOutcome {
	var out AttackOutcome
	var flood []Pair

	// Plan: flood the pairs crossing the hottest link of the view.
	out.TargetVirt, _ = view.MaxDensity()
	for pair, path := range view {
		if pathHasLink(path, out.TargetVirt) {
			flood = append(flood, pair)
		}
	}
	out.FloodPairs = len(flood)

	// Effect: the flows follow the *physical* paths.
	out.AchievedDensity = floodDensity(phys, flood)

	// Oracle baseline: flood every pair crossing the physically hottest
	// link.
	physHot, _ := phys.MaxDensity()
	var oracle []Pair
	for pair, path := range phys {
		if pathHasLink(path, physHot) {
			oracle = append(oracle, pair)
		}
	}
	out.OptimalDensity = floodDensity(phys, oracle)
	if out.OptimalDensity > 0 {
		out.Success = float64(out.AchievedDensity) / float64(out.OptimalDensity)
	}
	return out
}

// floodDensity returns the maximum number of the chosen flows sharing one
// physical link.
func floodDensity(phys PathMap, flood []Pair) int {
	counts := map[linkID]int{}
	max := 0
	for _, pair := range flood {
		path, ok := phys[pair]
		if !ok {
			continue
		}
		for i := 0; i+1 < len(path); i++ {
			l := mkLink(path[i], path[i+1])
			counts[l]++
			if counts[l] > max {
				max = counts[l]
			}
		}
	}
	return max
}

// HiddenLinkVisible reports whether any path of the view still traverses
// the given physical link — the §4.3 check that a malicious operator's
// lie really conceals it.
func HiddenLinkVisible(view PathMap, a, b graph.NodeID) bool {
	l := mkLink(a, b)
	for _, path := range view {
		if pathHasLink(path, l) {
			return true
		}
	}
	return false
}
