package sketch

import "dui/internal/stats"

// CraftPollutingFlows searches for flow labels whose hash positions all
// fall inside a small target region of the table — "the power of evil
// choices": because the hash is public and unkeyed, the attacker simply
// enumerates candidate labels offline and keeps the ones that land where
// she wants. Enough such flows form a *stopping set*: every cell they
// touch holds ≥2 flows, so the peeling decoder can never start on them —
// the crafted traffic becomes invisible to the monitoring system with far
// fewer flows than random traffic would need (random flows only defeat
// the decoder near the global load threshold).
//
// region is the fraction of each hash partition targeted (the first
// region·(m/k) cells of every partition); the search scans labels from
// startLabel upward, deterministic and embarrassingly parallel for a real
// attacker.
func CraftPollutingFlows(m, k, n int, region float64, startLabel FlowID) []FlowID {
	rangeLen := m / k
	limit := regionLimit(rangeLen, region)
	out := make([]FlowID, 0, n)
	for id := startLabel; len(out) < n; id++ {
		if inRegion(id, k, rangeLen, limit, -1) {
			out = append(out, id)
		}
	}
	return out
}

// regionLimit is the number of leading cells of each partition the
// polluted region covers.
func regionLimit(rangeLen int, region float64) int {
	return max(int(region*float64(rangeLen)), 1)
}

// inRegion reports whether every partition but skip puts id among its
// first limit cells. It hashes one partition at a time and stops at the
// first one outside, which is where nearly every candidate fails.
func inRegion(id FlowID, k, rangeLen, limit, skip int) bool {
	for i := 0; i < k; i++ {
		if i != skip && offset(id, i, rangeLen) >= limit {
			return false
		}
	}
	return true
}

// CraftTargetedHiders crafts flows that conceal a chosen victim flow from
// the decoder: for each of the victim's k cells, perCell flows are found
// that (a) share that exact cell and (b) keep their remaining positions
// inside the polluted region, so they are themselves part of the stopping
// set and can never be peeled away. With every victim cell permanently
// impure, the victim's traffic disappears from the network statistics.
// A candidate is checked against the victim's cell first, the rarer of
// the two conditions.
func CraftTargetedHiders(m, k int, victim FlowID, region float64, perCell int, startLabel FlowID) []FlowID {
	rangeLen := m / k
	limit := regionLimit(rangeLen, region)
	var out []FlowID
	for target := 0; target < k; target++ {
		cell := offset(victim, target, rangeLen)
		for found, id := 0, startLabel; found < perCell; id++ {
			if offset(id, target, rangeLen) == cell && inRegion(id, k, rangeLen, limit, target) && id != victim {
				out = append(out, id)
				found++
				startLabel = id + 1
			}
		}
	}
	return out
}

// PollutionRow is one point of the E7b experiment.
type PollutionRow struct {
	// AttackFlows is the number of adversarial flows inserted.
	AttackFlows int
	// Crafted tells whether the attacker used crafted labels (true) or
	// the same number of random labels (false baseline).
	Crafted bool
	// LegitDecoded / AttackDecoded are the fractions of legitimate and
	// adversarial flows the decoder recovered.
	LegitDecoded, AttackDecoded float64
	// Residue is the undecodable cell count.
	Residue int
}

// PollutionExperiment measures decoding as adversarial flows are added,
// comparing crafted labels against an equal number of random labels. The
// §3.2 shape: crafted flows vanish from the statistics (AttackDecoded→0)
// at a volume where the structure digests random flows without a trace;
// saturating random flows only win near the global peeling threshold, and
// then they take everyone down with them.
type PollutionExperiment struct {
	M          int
	LegitFlows int
	Seed       uint64
}

// The pollution experiment's FlowRadar geometry and attack target.
const (
	// pollutionK is the number of hash partitions (and the saturation
	// attack's Bloom hash count).
	pollutionK int = 3
	// pollutionRegion is the targeted fraction of the table.
	pollutionRegion float64 = 0.05
)

func (e *PollutionExperiment) defaults() {
	if e.M <= 0 {
		e.M = 4096
	}
	if e.LegitFlows <= 0 {
		e.LegitFlows = 1500
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
}

func (e PollutionExperiment) legitSet(rng *stats.RNG) []FlowID {
	legit := make([]FlowID, e.LegitFlows)
	used := map[FlowID]bool{}
	for i := range legit {
		for {
			id := FlowID(rng.Uint64() | 1<<63) // high bit: legit namespace
			if !used[id] {
				used[id] = true
				legit[i] = id
				break
			}
		}
	}
	return legit
}

// Run sweeps the adversarial flow counts.
func (e PollutionExperiment) Run(attackCounts []int) []PollutionRow {
	e.defaults()
	rng := stats.NewRNG(e.Seed)
	legit := e.legitSet(rng)

	var rows []PollutionRow
	for _, n := range attackCounts {
		for _, crafted := range []bool{false, true} {
			fr := New(e.M, pollutionK)
			for _, id := range legit {
				fr.Add(id)
			}
			var attack []FlowID
			if crafted {
				attack = CraftPollutingFlows(e.M, pollutionK, n, pollutionRegion, 1)
			} else {
				seen := map[FlowID]bool{}
				for len(seen) < n {
					id := FlowID(rng.Uint64() &^ (1 << 63))
					if !seen[id] {
						seen[id] = true
						attack = append(attack, id)
					}
				}
			}
			for _, id := range attack {
				fr.Add(id)
			}
			dec := fr.Decode()
			rows = append(rows, PollutionRow{
				AttackFlows:   n,
				Crafted:       crafted,
				LegitDecoded:  decodedFraction(dec, legit),
				AttackDecoded: decodedFraction(dec, attack),
				Residue:       dec.Residue,
			})
		}
	}
	return rows
}

// The targeted attack's budget: targetedRegionFlows polluting flows, and
// targetedPerCell hiders in each of the victim's cells.
const (
	targetedRegionFlows int = 400
	targetedPerCell     int = 2
)

// RunTargeted hides one victim legitimate flow: region pollution plus the
// targeted hiders. It returns whether the victim was decoded and the
// decode fraction of the remaining legitimate flows (collateral).
func (e PollutionExperiment) RunTargeted() (victimDecoded bool, otherLegit float64) {
	e.defaults()
	rng := stats.NewRNG(e.Seed)
	legit := e.legitSet(rng)
	victim := legit[0]

	fr := New(e.M, pollutionK)
	for _, id := range legit {
		fr.Add(id)
	}
	for _, id := range CraftPollutingFlows(e.M, pollutionK, targetedRegionFlows, pollutionRegion, 1) {
		fr.Add(id)
	}
	for _, id := range CraftTargetedHiders(e.M, pollutionK, victim, pollutionRegion, targetedPerCell, 1<<40) {
		fr.Add(id)
	}
	dec := fr.Decode()
	_, victimDecoded = dec.Flows[victim]
	otherLegit = decodedFraction(dec, legit[1:])
	return
}

func decodedFraction(dec Decoded, ids []FlowID) float64 {
	if len(ids) == 0 {
		return 1
	}
	got := 0
	for _, id := range ids {
		if _, ok := dec.Flows[id]; ok {
			got++
		}
	}
	return float64(got) / float64(len(ids))
}
