package trace

import (
	"math"
	"testing"

	"dui/internal/packet"
	"dui/internal/stats"
)

var victim = packet.MustParsePrefix("10.9.0.0/24")

func legitCfg(flows int, until float64) LegitConfig {
	return LegitConfig{
		Victim:  victim,
		Flows:   flows,
		Dur:     ExpDuration{MeanSec: 8.0},
		PPS:     2,
		Until:   until,
		SrcBase: packet.MustParseAddr("20.0.0.0"),
	}
}

func TestLegitStreamTimeOrderedAndBounded(t *testing.T) {
	s := NewLegit(legitCfg(50, 30), stats.NewRNG(1))
	last := -1.0
	n := 0
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.Time < last {
			t.Fatalf("stream not time-ordered: %v after %v", ev.Time, last)
		}
		if ev.Time > 30 {
			t.Fatalf("event after Until: %v", ev.Time)
		}
		if !victim.Contains(ev.Pkt.Dst) {
			t.Fatalf("packet to %v outside victim prefix", ev.Pkt.Dst)
		}
		last = ev.Time
		n++
	}
	// 50 flows x 2 pps x 30 s = ~3000 packets.
	if n < 2000 || n > 4000 {
		t.Fatalf("generated %d packets, want ~3000", n)
	}
}

func TestLegitStreamSeqAdvances(t *testing.T) {
	// A single slow-renewal flow must show strictly increasing sequence
	// numbers within a flow — no fake retransmissions from legit traffic.
	cfg := legitCfg(5, 20)
	s := NewLegit(cfg, stats.NewRNG(2))
	lastSeq := map[packet.FlowKey]uint32{}
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		k := ev.Pkt.Flow()
		if prev, seen := lastSeq[k]; seen && ev.Pkt.TCP.Seq <= prev {
			t.Fatalf("legit flow %v repeated seq %d", k, ev.Pkt.TCP.Seq)
		}
		lastSeq[k] = ev.Pkt.TCP.Seq
	}
}

func TestLegitRenewalKeepsPopulation(t *testing.T) {
	// With mean duration 8 s over 100 s, each slot renews ~12 times, so
	// distinct flow keys must far exceed the concurrent population.
	s := NewLegit(legitCfg(20, 100), stats.NewRNG(3))
	keys := map[packet.FlowKey]bool{}
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		keys[ev.Pkt.Flow()] = true
	}
	if len(keys) < 100 {
		t.Fatalf("only %d distinct flows; renewal broken?", len(keys))
	}
}

func TestMaliciousAlwaysActiveAndRetransmits(t *testing.T) {
	cfg := MaliciousConfig{
		Victim: victim, Flows: 10, PPS: 2, Until: 60,
		SrcBase:        packet.MustParseAddr("30.0.0.0"),
		RetransmitFrom: 30,
	}
	s := NewMalicious(cfg, stats.NewRNG(4))
	seqsBefore := map[packet.FlowKey]map[uint32]int{}
	dupAfter := 0
	totalAfter := 0
	lastPerFlow := map[packet.FlowKey]float64{}
	maxGap := 0.0
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		k := ev.Pkt.Flow()
		if prev, seen := lastPerFlow[k]; seen {
			if g := ev.Time - prev; g > maxGap {
				maxGap = g
			}
		}
		lastPerFlow[k] = ev.Time
		if ev.Time < 30 {
			if seqsBefore[k] == nil {
				seqsBefore[k] = map[uint32]int{}
			}
			seqsBefore[k][ev.Pkt.TCP.Seq]++
		} else {
			totalAfter++
			if seqsBefore[k] != nil {
				if _, dup := seqsBefore[k][ev.Pkt.TCP.Seq]; dup {
					dupAfter++
				}
			}
		}
	}
	// Before the trigger, per-flow seqs are unique.
	for k, seqs := range seqsBefore {
		for seq, n := range seqs {
			if n > 1 {
				t.Fatalf("flow %v repeated seq %d before trigger", k, seq)
			}
		}
	}
	// After the trigger, packets repeat the frozen sequence number.
	if totalAfter == 0 || dupAfter < totalAfter*9/10 {
		t.Fatalf("after trigger %d/%d duplicates", dupAfter, totalAfter)
	}
	// Flows stay active: with PPS=2, gaps beyond 2s (Blink's inactivity
	// eviction) must be rare enough to never appear in this run.
	if maxGap > 6 {
		t.Fatalf("malicious flow idle for %.2fs", maxGap)
	}
}

func TestMergeOrders(t *testing.T) {
	rng := stats.NewRNG(5)
	a := NewLegit(legitCfg(10, 10), rng.Child())
	b := NewMalicious(MaliciousConfig{
		Victim: victim, Flows: 5, PPS: 2, Until: 10,
		SrcBase: packet.MustParseAddr("30.0.0.0"), RetransmitFrom: math.Inf(1),
	}, rng.Child())
	m := Merge(a, b)
	last := -1.0
	n := 0
	for {
		ev, ok := m.Next()
		if !ok {
			break
		}
		if ev.Time < last {
			t.Fatal("merged stream out of order")
		}
		last = ev.Time
		n++
	}
	if n < 200 {
		t.Fatalf("merged only %d events", n)
	}
}

func TestDurationDistMeans(t *testing.T) {
	rng := stats.NewRNG(6)
	for _, d := range []DurationDist{
		ExpDuration{MeanSec: 8.37},
		LogNormalDuration{Mu: 1.0, Sigma: 1.0},
	} {
		var s stats.Summary
		for i := 0; i < 300000; i++ {
			s.Add(d.Sample(rng))
		}
		if math.Abs(s.Mean()-d.Mean())/d.Mean() > 0.1 {
			t.Fatalf("%v: sample mean %v vs analytic %v", d, s.Mean(), d.Mean())
		}
	}
}

func TestSyntheticSurveySpansRegime(t *testing.T) {
	ps := SyntheticSurvey(20, stats.NewRNG(7))
	if len(ps) != 20 {
		t.Fatal("wrong count")
	}
	lo, hi := false, false
	for _, p := range ps {
		m := p.Dur.Mean()
		if m < 0.3 || m > 60 {
			t.Fatalf("prefix %s mean duration %v outside plausible range", p.Name, m)
		}
		if m < 4 {
			lo = true
		}
		if m > 8 {
			hi = true
		}
		if p.PPS < 2 || p.PPS > 12 {
			t.Fatalf("pps %v out of range", p.PPS)
		}
	}
	if !lo || !hi {
		t.Fatal("survey does not span short and long duration prefixes")
	}
}

func TestStreamsDeterministic(t *testing.T) {
	collect := func(seed uint64) []float64 {
		s := NewLegit(legitCfg(20, 20), stats.NewRNG(seed))
		var ts []float64
		for {
			ev, ok := s.Next()
			if !ok {
				break
			}
			ts = append(ts, ev.Time)
		}
		return ts
	}
	a, b := collect(42), collect(42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic stream")
		}
	}
}

// TestEventFlowHash pins the Event.FlowHash contract on every generator:
// each event carries Pkt.Flow().FastHash(), including events of flows
// that renewed mid-stream, storming and RTO-mimicking attack flows, events
// routed through Merge, and the prefix events of a multi-prefix PopShard.
func TestEventFlowHash(t *testing.T) {
	check := func(name string, st Stream) {
		t.Helper()
		n := 0
		for ev, ok := st.Next(); ok; ev, ok = st.Next() {
			if want := ev.Pkt.Flow().FastHash(); ev.FlowHash != want {
				t.Fatalf("%s event %d: FlowHash %#x, want %#x", name, n, ev.FlowHash, want)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("%s: no events", name)
		}
	}
	legit := legitCfg(20, 30)
	legit.Dur = ExpDuration{MeanSec: 2} // many renewals within Until
	mal := func(storm float64, mimic bool) MaliciousConfig {
		return MaliciousConfig{
			Victim: victim, Flows: 8, PPS: 4, Until: 30,
			SrcBase: packet.MustParseAddr("30.0.0.0"), RetransmitFrom: storm, MimicRTO: mimic,
		}
	}

	renewed := NewLegit(legit, stats.NewRNG(1))
	check("legit", renewed)
	if got := renewed.(*flowStream).counter; got <= uint32(legit.Flows) {
		t.Fatalf("legit stream started %d flows, want renewals past %d", got, legit.Flows)
	}
	check("malicious", NewMalicious(mal(math.Inf(1), false), stats.NewRNG(2)))
	check("malicious storming", NewMalicious(mal(10, false), stats.NewRNG(3)))
	check("malicious MimicRTO", NewMalicious(mal(10, true), stats.NewRNG(4)))
	check("merge", Merge(NewLegit(legit, stats.NewRNG(5)), NewMalicious(mal(10, true), stats.NewRNG(6))))

	cfg := popTestConfig()
	sh := NewPopShard(cfg, 0, cfg.Prefixes)
	n := 0
	seen := map[int]bool{}
	for ev, ok := sh.Next(); ok; ev, ok = sh.Next() {
		if want := ev.Pkt.Flow().FastHash(); ev.FlowHash != want {
			t.Fatalf("PopShard event %d (prefix %d): FlowHash %#x, want %#x", n, ev.Prefix, ev.FlowHash, want)
		}
		seen[ev.Prefix] = true
		n++
	}
	if len(seen) != cfg.Prefixes {
		t.Fatalf("PopShard covered %d of %d prefixes", len(seen), cfg.Prefixes)
	}
}
