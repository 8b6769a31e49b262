package sketch

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"

	"dui/internal/stats"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	fr := New(1024, 3)
	want := map[FlowID]uint64{}
	rng := stats.NewRNG(1)
	for i := 0; i < 200; i++ {
		id := FlowID(rng.Uint64())
		n := uint64(1 + rng.IntN(20))
		want[id] += n
		for j := uint64(0); j < n; j++ {
			fr.Add(id)
		}
	}
	dec := fr.Decode()
	if dec.Residue != 0 {
		t.Fatalf("residue = %d on a lightly loaded table", dec.Residue)
	}
	if len(dec.Flows) != len(want) {
		t.Fatalf("decoded %d of %d flows", len(dec.Flows), len(want))
	}
	for id, n := range want {
		if dec.Flows[id] != n {
			t.Fatalf("flow %x count = %d want %d", id, dec.Flows[id], n)
		}
	}
}

func TestDecodePropertySmallTables(t *testing.T) {
	// For any modest flow set on an adequately sized table, every
	// decoded (id,count) pair must be correct — peeling never fabricates.
	if err := quick.Check(func(seeds []uint16) bool {
		if len(seeds) > 60 {
			seeds = seeds[:60]
		}
		fr := New(512, 3)
		want := map[FlowID]uint64{}
		for _, s := range seeds {
			id := FlowID(s) + 1
			want[id]++
			fr.Add(id)
		}
		dec := fr.Decode()
		for id, n := range dec.Flows {
			if want[id] != n {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPositionsDeterministicAndInRange(t *testing.T) {
	p1 := appendPositions(nil, 12345, 4, 333)
	p2 := appendPositions(nil, 12345, 4, 333)
	if len(p1) != 4 {
		t.Fatalf("%d positions, want 4", len(p1))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("positions not deterministic")
		}
		if p1[i] < 0 || p1[i] >= 333 {
			t.Fatalf("position out of range: %d", p1[i])
		}
	}
}

func TestCraftedFlowsLandInRegion(t *testing.T) {
	m, k := 2048, 3
	flows := CraftPollutingFlows(m, k, 50, 0.05, 1)
	if len(flows) != 50 {
		t.Fatalf("crafted %d flows", len(flows))
	}
	rangeLen := m / k
	limit := int(0.05 * float64(rangeLen))
	for _, id := range flows {
		for i, p := range appendPositions(nil, id, k, m) {
			if p-i*rangeLen >= limit {
				t.Fatalf("flow %x position %d outside region of partition %d", id, p, i)
			}
		}
	}
	// Crafted labels must be distinct.
	seen := map[FlowID]bool{}
	for _, id := range flows {
		if seen[id] {
			t.Fatal("duplicate crafted flow")
		}
		seen[id] = true
	}
}

// TestPollutionHidesAttackTraffic is the §3.2 claim: crafted flows form a
// stopping set and vanish from the monitoring statistics at a volume the
// structure digests random flows without a trace.
func TestPollutionHidesAttackTraffic(t *testing.T) {
	rows := PollutionExperiment{Seed: 2}.Run([]int{0, 400})
	byKey := map[[2]interface{}]PollutionRow{}
	for _, r := range rows {
		byKey[[2]interface{}{r.AttackFlows, r.Crafted}] = r
	}
	clean := byKey[[2]interface{}{0, false}]
	if clean.LegitDecoded < 0.999 {
		t.Fatalf("baseline decode rate = %v", clean.LegitDecoded)
	}
	random := byKey[[2]interface{}{400, false}]
	crafted := byKey[[2]interface{}{400, true}]
	// The table digests 400 random flows fine: everything decodes.
	if random.LegitDecoded < 0.99 || random.AttackDecoded < 0.99 {
		t.Fatalf("random extra flows already harmful: %+v — table underdimensioned", random)
	}
	// 400 crafted flows are a stopping set: they disappear from the
	// statistics.
	if crafted.AttackDecoded > 0.05 {
		t.Fatalf("crafted flows still visible: %v", crafted.AttackDecoded)
	}
	if crafted.Residue == 0 {
		t.Fatal("crafted attack left no residue")
	}
	// Legitimate flows keep decoding (the targeted attack is what takes
	// out a chosen legitimate flow).
	if crafted.LegitDecoded < 0.99 {
		t.Fatalf("unexpected collateral on legit flows: %v", crafted.LegitDecoded)
	}
}

// TestRandomSaturationThreshold: random flows defeat the decoder only
// near the global load threshold — and then they take everyone down,
// unlike the surgical crafted attack.
func TestRandomSaturationThreshold(t *testing.T) {
	rows := PollutionExperiment{Seed: 3}.Run([]int{3000})
	for _, r := range rows {
		if r.Crafted {
			continue
		}
		if r.LegitDecoded > 0.9 {
			t.Fatalf("4500 total flows on 4096 cells should collapse decode: %+v", r)
		}
	}
}

// TestTargetedHiding: the attacker conceals one chosen legitimate flow
// from the statistics while every other legitimate flow still decodes.
func TestTargetedHiding(t *testing.T) {
	victimDecoded, others := PollutionExperiment{Seed: 4}.RunTargeted()
	if victimDecoded {
		t.Fatal("victim flow still visible in decoded statistics")
	}
	if others < 0.99 {
		t.Fatalf("collateral damage on other legit flows: %v", others)
	}
}

// TestBloomSaturationAdvantage: crafted keys saturate a Bloom filter with
// substantially fewer insertions than random keys (Gerbet et al.).
func TestBloomSaturationAdvantage(t *testing.T) {
	rng := stats.NewRNG(5)
	random := SaturationInsertions(false, rng.Child())
	crafted := SaturationInsertions(true, rng.Child())
	if crafted <= 0 || random <= 0 {
		t.Fatalf("degenerate saturation counts: %d %d", crafted, random)
	}
	if float64(random)/float64(crafted) < 1.5 {
		t.Fatalf("crafted advantage only %.2fx (crafted %d vs random %d)",
			float64(random)/float64(crafted), crafted, random)
	}
}

func TestBloomBasics(t *testing.T) {
	b := NewBloom(1024, 3)
	b.Add(42)
	if !b.Contains(42) {
		t.Fatal("no false negatives allowed")
	}
	if b.FillRatio() <= 0 || b.FillRatio() > 3.0/1024 {
		t.Fatalf("fill ratio = %v", b.FillRatio())
	}
	rng := stats.NewRNG(6)
	if fpr := b.EstimateFPR(2000, rng); fpr > 0.01 {
		t.Fatalf("near-empty filter FPR = %v", fpr)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 3)
}

func TestLossRadarDetectsLosses(t *testing.T) {
	lr := NewLossRadar(2048, 3)
	rng := stats.NewRNG(7)
	lost := map[FlowID]uint64{}
	for i := 0; i < 300; i++ {
		id := FlowID(rng.Uint64()&0x7FFFFFFFFFFF | 1<<46)
		n := 1 + rng.IntN(10)
		drop := 0
		if i%5 == 0 {
			drop = 1 + rng.IntN(n)
			lost[id] = uint64(drop)
		}
		for p := 0; p < n; p++ {
			lr.Upstream(id, uint16(p))
			if p >= n-drop {
				continue // lost inside the segment
			}
			lr.Downstream(id, uint16(p))
		}
	}
	rep := lr.Losses()
	if rep.Residue != 0 {
		t.Fatalf("residue = %d", rep.Residue)
	}
	if len(rep.PerFlow) != len(lost) {
		t.Fatalf("decoded %d lossy flows, want %d", len(rep.PerFlow), len(lost))
	}
	for id, want := range lost {
		if rep.PerFlow[id] != want {
			t.Fatalf("flow %x loss = %d, want %d", id, rep.PerFlow[id], want)
		}
	}
}

func TestLossRadarPollutionMasksLosses(t *testing.T) {
	lr := NewLossRadar(2048, 3)
	// One victim flow loses its last 3 of 10 packets in the segment.
	victim := FlowID(1 << 46)
	for p := 0; p < 10; p++ {
		lr.Upstream(victim, uint16(p))
		if p < 7 {
			lr.Downstream(victim, uint16(p))
		}
	}
	// The attacker sends crafted packets and withholds them inside the
	// segment (she controls her own traffic): the loss difference gains
	// a stopping set. Targeted hiders cover each of the victim's
	// possible lost-packet items.
	for _, item := range CraftPollutingFlows(2048, 3, 300, 0.05, 1) {
		lr.UpstreamRaw(item)
	}
	start := FlowID(1 << 40)
	for seq := uint16(0); seq < 10; seq++ {
		for _, item := range CraftTargetedHiders(2048, 3, PacketLabel(victim, seq), 0.05, 2, start) {
			lr.UpstreamRaw(item)
			start = item + 1
		}
	}
	rep := lr.Losses()
	if _, ok := rep.PerFlow[victim]; ok {
		t.Fatal("victim's losses still visible despite pollution")
	}
	if rep.Residue == 0 {
		t.Fatal("no residue: pollution had no effect")
	}
}

// TestInlineHashMatchesFNV pins the inline FNV-1a of appendPositions to
// hash/fnv's New64a over the same 9 bytes, on random labels and table
// shapes.
func TestInlineHashMatchesFNV(t *testing.T) {
	rng := stats.NewRNG(11)
	for n := 0; n < 2000; n++ {
		id := FlowID(rng.Uint64())
		k := 1 + rng.IntN(12)
		m := k + rng.IntN(5000)
		got := appendPositions(nil, id, k, m)
		rangeLen := m / k
		var buf [9]byte
		binary.BigEndian.PutUint64(buf[1:], uint64(id))
		for i := 0; i < k; i++ {
			buf[0] = byte(i)
			h := fnv.New64a()
			h.Write(buf[:])
			if want := i*rangeLen + int(h.Sum64()%uint64(rangeLen)); got[i] != want {
				t.Fatalf("id %x k %d m %d partition %d: %d, want %d", id, k, m, i, got[i], want)
			}
		}
	}
}
