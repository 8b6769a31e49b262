package sppifo

import (
	"sort"
	"testing"
	"testing/quick"

	"dui/internal/stats"
)

func TestPIFOPerfectOrder(t *testing.T) {
	q := &PIFO{}
	ranks := []int{5, 1, 9, 3, 3, 7}
	for i, r := range ranks {
		if !q.Enqueue(Packet{ID: i, Rank: r}) {
			t.Fatal("enqueue failed")
		}
	}
	var got []int
	for {
		p, ok := q.Dequeue()
		if !ok {
			break
		}
		got = append(got, p.Rank)
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("PIFO out of order: %v", got)
	}
	if Unpifoness(nil) != 0 {
		t.Fatal("empty unpifoness")
	}
}

func TestPIFOFIFOTieBreak(t *testing.T) {
	q := &PIFO{}
	q.Enqueue(Packet{ID: 1, Rank: 5})
	q.Enqueue(Packet{ID: 2, Rank: 5})
	p, _ := q.Dequeue()
	if p.ID != 1 {
		t.Fatal("equal ranks must dequeue FIFO")
	}
}

func TestSPPIFOPushUpPushDown(t *testing.T) {
	q := New(2, 0)
	// Rank 5 lands in the lowest-priority queue (bound 0 <= 5), bound->5.
	q.Enqueue(Packet{ID: 1, Rank: 5})
	if b := q.bounds; b[1] != 5 {
		t.Fatalf("bounds = %v", b)
	}
	// Rank 3 < 5 but >= bound[0]=0: highest-priority queue, bound->3.
	q.Enqueue(Packet{ID: 2, Rank: 3})
	if b := q.bounds; b[0] != 3 {
		t.Fatalf("bounds = %v", b)
	}
	// Rank 1 < every bound: push-down by 3-1=2.
	q.Enqueue(Packet{ID: 3, Rank: 1})
	if b := q.bounds; b[0] != 1 || b[1] != 3 {
		t.Fatalf("bounds after push-down = %v", b)
	}
	// Dequeue: strict priority — queue 0 first (ranks 3 then 1), then 5.
	var ids []int
	for {
		p, ok := q.Dequeue()
		if !ok {
			break
		}
		ids = append(ids, p.ID)
	}
	want := []int{2, 3, 1}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("dequeue order = %v", ids)
		}
	}
}

func TestSPPIFODrops(t *testing.T) {
	q := New(1, 2)
	q.Enqueue(Packet{Rank: 1})
	q.Enqueue(Packet{Rank: 1})
	if q.Enqueue(Packet{Rank: 1}) {
		t.Fatal("full queue accepted packet")
	}
	if q.Drops != 1 {
		t.Fatalf("drops = %d", q.Drops)
	}
}

func TestSPPIFOConservesPackets(t *testing.T) {
	if err := quick.Check(func(ranks []uint8) bool {
		q := New(4, 0)
		for i, r := range ranks {
			q.Enqueue(Packet{ID: i, Rank: int(r)})
		}
		n := 0
		for {
			if _, ok := q.Dequeue(); !ok {
				break
			}
			n++
		}
		return n == len(ranks)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpifonessMetric(t *testing.T) {
	// Sorted order: zero.
	if Unpifoness([]Packet{{Rank: 1}, {Rank: 2}, {Rank: 3}}) != 0 {
		t.Fatal("sorted order must be zero")
	}
	// One inversion of magnitude 2.
	if got := Unpifoness([]Packet{{Rank: 3}, {Rank: 1}}); got != 2 {
		t.Fatalf("unpifoness = %d", got)
	}
}

func TestMeanVictimDelay(t *testing.T) {
	// Victim with rank 1 served last among 3: displaced by 2.
	order := []Packet{{ID: 1, Rank: 5}, {ID: 2, Rank: 9}, {ID: 3, Rank: 1, Victim: true}}
	if d := MeanVictimDelay(order); d != 2 {
		t.Fatalf("delay = %v", d)
	}
}

// TestMoreQueuesApproximateBetter is SP-PIFO's own design claim under its
// randomness assumption — needed so the attack comparison is meaningful.
func TestMoreQueuesApproximateBetter(t *testing.T) {
	rng := stats.NewRNG(3)
	run := func(k int) int {
		return Run(New(k, 0), Workload{Victims: 3000, VictimMaxRank: 100}, stats.NewRNG(7)).Unpifoness
	}
	u2, u8, u32 := run(2), run(8), run(32)
	if !(u32 < u8 && u8 < u2) {
		t.Fatalf("unpifoness not improving with queues: %d, %d, %d", u2, u8, u32)
	}
	_ = rng
}

// TestAdversarialSequenceInflatesUnpifoness is the §3.2 attack: crafted
// rank sequences break the random-arrival assumption.
func TestAdversarialSequenceInflatesUnpifoness(t *testing.T) {
	out := Experiment{Seed: 4}.Run()
	if out.RandomExcess <= 0 {
		t.Fatal("SP-PIFO should be imperfect even on random ranks")
	}
	if out.Adversarial.Unpifoness < out.PIFOAttack.Unpifoness {
		t.Fatal("approximation cannot beat the ideal PIFO")
	}
	if out.Amplification < 1.8 {
		t.Fatalf("adversarial amplification only %.2fx", out.Amplification)
	}
	if out.Adversarial.VictimDelay <= out.RandomRanks.VictimDelay {
		t.Fatalf("victim delay not increased: %v vs %v",
			out.Adversarial.VictimDelay, out.RandomRanks.VictimDelay)
	}
}

func TestExperimentDeterministic(t *testing.T) {
	a := Experiment{Seed: 5}.Run()
	b := Experiment{Seed: 5}.Run()
	if a.Adversarial.Unpifoness != b.Adversarial.Unpifoness {
		t.Fatal("nondeterministic experiment")
	}
}
