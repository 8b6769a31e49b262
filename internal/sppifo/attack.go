package sppifo

import "dui/internal/stats"

// Workload generates a rank sequence fed to a queue under test.
type Workload struct {
	// Victims carry uniform ranks — the legitimate traffic whose
	// scheduling the experiment scores.
	Victims int
	// VictimMaxRank bounds victim ranks (uniform in [0, VictimMaxRank)).
	VictimMaxRank int
	// Attack packets are interleaved among the victims.
	Attack []int // attacker rank sequence (empty = no attack)
}

// Sawtooth returns ascending ramps each ending in a plunge to rank 0:
// every ramp packet pushes a queue bound up, and the plunge forces a
// push-down that collapses all bounds.
func Sawtooth(teeth, ramp, maxRank int) []int {
	var out []int
	for t := 0; t < teeth; t++ {
		for s := 0; s < ramp; s++ {
			out = append(out, maxRank*(s+1)/ramp)
		}
		out = append(out, 0)
	}
	return out
}

// DescendingRamps is the strongest crafted sequence found for the
// push-up/push-down adaptation: monotonically descending ranks violate
// the random-arrival assumption maximally — every packet undercuts the
// freshly raised bounds, triggering continual push-downs, so the bounds
// chase the attacker's ramp instead of reflecting the victims' rank
// distribution. Victims get binned almost arbitrarily.
func DescendingRamps(n, maxRank int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = maxRank - 1 - (i*maxRank/n)%maxRank
	}
	return out
}

// RunResult is the outcome of one scheduling run.
type RunResult struct {
	Unpifoness  int
	VictimDelay float64
	Drops       int
	Dequeued    int
}

// backlog is the standing queue Run builds before it starts serving.
const backlog int = 256

// Run feeds the workload through q with a standing backlog: the first
// backlog arrivals build up a queue, then arrivals and services
// alternate one-for-one, and the queue drains at the end. A loaded queue
// is the regime where scheduling order matters — an empty switch queue
// has nothing to reorder.
func Run(q Queue, w Workload, rng *stats.RNG) RunResult {
	// Build the interleaved arrival sequence: attack packets are evenly
	// spread among victim packets.
	var arrivals []Packet
	id := 0
	na, nv := len(w.Attack), w.Victims
	ai, vi := 0, 0
	total := na + nv
	for k := 0; k < total; k++ {
		// Interleave proportionally, attacker first within each slot.
		if ai < na && (vi >= nv || ai*nv <= vi*na) {
			arrivals = append(arrivals, Packet{ID: id, Rank: w.Attack[ai]})
			ai++
		} else {
			arrivals = append(arrivals, Packet{ID: id, Rank: rng.IntN(w.VictimMaxRank), Victim: true})
			vi++
		}
		id++
	}

	var order []Packet
	drops := 0
	for i, p := range arrivals {
		if !q.Enqueue(p) {
			drops++
		}
		if i >= backlog {
			if pkt, ok := q.Dequeue(); ok {
				order = append(order, pkt)
			}
		}
	}
	for {
		pkt, ok := q.Dequeue()
		if !ok {
			break
		}
		order = append(order, pkt)
	}
	return RunResult{
		Unpifoness:  Unpifoness(order),
		VictimDelay: MeanVictimDelay(order),
		Drops:       drops,
		Dequeued:    len(order),
	}
}

// Experiment compares the ideal PIFO, SP-PIFO under the random-rank
// assumption, and SP-PIFO under the adversarial sawtooth, at the given
// queue count.
type Experiment struct {
	Queues  int
	Victims int
	Seed    uint64
}

// expMaxRank bounds the Experiment's ranks: victims draw uniform ranks in
// [0, expMaxRank) and the attack ramps descend from it.
const expMaxRank int = 100

// Outcome holds the comparison. Even an ideal PIFO cannot order packets
// across drain bursts (later packets did not exist yet), so the meaningful
// score of an approximation is its *excess* unpifoness over the PIFO run
// on identical arrivals.
type Outcome struct {
	// PIFORandom/PIFOAttack are the reference runs (feasibility bounds).
	PIFORandom, PIFOAttack RunResult
	// RandomRanks/Adversarial are SP-PIFO under the design assumption
	// and under the crafted sequence.
	RandomRanks, Adversarial RunResult
	// RandomExcess/AdversarialExcess are SP-PIFO minus PIFO unpifoness
	// on the matching workload.
	RandomExcess, AdversarialExcess int
	// Amplification is AdversarialExcess / RandomExcess: how much worse
	// the crafted sequence makes the approximation, beyond what any
	// scheduler would suffer.
	Amplification float64
}

// Run executes the comparison.
func (e Experiment) Run() Outcome {
	if e.Queues <= 0 {
		e.Queues = 8
	}
	if e.Victims <= 0 {
		e.Victims = 2000
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	rng := stats.NewRNG(e.Seed)
	attack := DescendingRamps(e.Victims/2, expMaxRank)
	wRand := Workload{Victims: e.Victims, VictimMaxRank: expMaxRank}
	wAtk := Workload{Victims: e.Victims, VictimMaxRank: expMaxRank, Attack: attack}

	var out Outcome
	// Paired seeds: each PIFO reference sees the identical arrival
	// sequence as its SP-PIFO counterpart.
	seedRand, seedAtk := rng.Uint64(), rng.Uint64()
	out.PIFORandom = Run(&PIFO{}, wRand, stats.NewRNG(seedRand))
	out.RandomRanks = Run(New(e.Queues, 0), wRand, stats.NewRNG(seedRand))
	out.PIFOAttack = Run(&PIFO{}, wAtk, stats.NewRNG(seedAtk))
	out.Adversarial = Run(New(e.Queues, 0), wAtk, stats.NewRNG(seedAtk))
	out.RandomExcess = out.RandomRanks.Unpifoness - out.PIFORandom.Unpifoness
	out.AdversarialExcess = out.Adversarial.Unpifoness - out.PIFOAttack.Unpifoness
	if out.RandomExcess > 0 {
		out.Amplification = float64(out.AdversarialExcess) / float64(out.RandomExcess)
	}
	return out
}
