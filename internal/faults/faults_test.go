package faults

import (
	"math"
	"reflect"
	"testing"

	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
)

func tcp(seq uint32) *packet.Packet {
	return packet.NewTCP(packet.MustParseAddr("10.0.0.1"), packet.MustParseAddr("10.0.1.1"),
		packet.TCPHeader{Seq: seq}, 100)
}

func TestFlapScheduleProperties(t *testing.T) {
	cfg := FlapConfig{Start: 1, End: 5, MeanDown: 0.2, MeanUp: 0.4, MinDwell: 0.15}
	sched := FlapSchedule(cfg, stats.NewRNG(7))
	if got := FlapSchedule(cfg, stats.NewRNG(7)); !reflect.DeepEqual(sched, got) {
		t.Fatal("schedule not deterministic for a fixed seed")
	}
	if sched[0].T != cfg.Start || sched[0].Up {
		t.Fatalf("first toggle = %+v, want down at Start", sched[0])
	}
	last := sched[len(sched)-1]
	if !last.Up || last.T > cfg.End {
		t.Fatalf("last toggle = %+v, want up at or before End", last)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].Up == sched[i-1].Up {
			t.Fatalf("toggles %d and %d do not alternate", i-1, i)
		}
		// The final forced up-toggle at End may cut a dwell short; every
		// drawn dwell respects the floor.
		if sched[i].T != cfg.End && sched[i].T-sched[i-1].T < cfg.MinDwell-1e-9 {
			t.Fatalf("dwell %v < MinDwell between toggles %d and %d", sched[i].T-sched[i-1].T, i-1, i)
		}
	}
	for _, tg := range sched {
		if tg.T < cfg.Start || tg.T > cfg.End {
			t.Fatalf("toggle %+v outside the flapping window", tg)
		}
	}
}

func TestFlapSchedulePanicsOnDegenerateConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on End <= Start")
		}
	}()
	FlapSchedule(FlapConfig{Start: 2, End: 2, MeanDown: 0.1, MeanUp: 0.1}, stats.NewRNG(1))
}

// TestGrayDeterministicAndScoped pins the stream-independence contract:
// verdicts are a pure function of the seed and the in-scope packet
// sequence — off-direction and out-of-window traffic consumes no draws.
func TestGrayDeterministicAndScoped(t *testing.T) {
	cfg := GrayConfig{LossP: 0.3, DupP: 0.2, Jitter: 0.05, From: 1, Until: 9}
	run := func(noise bool) []netsim.FaultVerdict {
		g := NewGrayDir(cfg, netsim.AToB, stats.NewRNG(42))
		var out []netsim.FaultVerdict
		for i := 0; i < 200; i++ {
			if noise {
				g.Apply(2, tcp(9999), netsim.BToA) // off direction
				g.Apply(0.5, tcp(9998), netsim.AToB)
				g.Apply(9.5, tcp(9997), netsim.AToB) // outside the window
			}
			out = append(out, g.Apply(2, tcp(uint32(i)), netsim.AToB))
		}
		return out
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("out-of-scope traffic perturbed the gray verdict stream")
	}
}

func TestGrayCorruptLeavesOriginalIntact(t *testing.T) {
	g := NewGray(GrayConfig{CorruptP: 1}, stats.NewRNG(3))
	p := tcp(1234)
	v := g.Apply(0, p, netsim.AToB)
	if v.Replace == nil {
		t.Fatal("CorruptP=1 produced no replacement")
	}
	if v.Replace.TCP.Seq == 1234 {
		t.Fatal("corrupted copy is identical to the original")
	}
	if p.TCP.Seq != 1234 {
		t.Fatal("corruption mutated the original packet")
	}
	if st := g.st; st.Corrupted != 1 || st.Seen != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

type constFault netsim.FaultVerdict

func (c constFault) Apply(now float64, p *packet.Packet, dir netsim.Direction) netsim.FaultVerdict {
	return netsim.FaultVerdict(c)
}

type replaceFault struct{ seq uint32 }

func (r replaceFault) Apply(now float64, p *packet.Packet, dir netsim.Direction) netsim.FaultVerdict {
	c := p.Clone()
	c.TCP.Seq = r.seq
	return netsim.FaultVerdict{Replace: c}
}

func TestMultiComposition(t *testing.T) {
	m := Multi{
		constFault{Delay: 0.1, Duplicate: 1},
		constFault{Delay: 0.2, Duplicate: 2},
	}
	v := m.Apply(0, tcp(1), netsim.AToB)
	if math.Abs(v.Delay-0.3) > 1e-12 || v.Duplicate != 3 || v.Drop {
		t.Fatalf("composed verdict = %+v", v)
	}

	drop := Multi{constFault{Drop: true}, constFault{Delay: 1}}
	if v := drop.Apply(0, tcp(1), netsim.AToB); !v.Drop || v.Delay != 0 {
		t.Fatalf("first-drop verdict = %+v, want a bare drop", v)
	}

	// Replace chains: the second stage sees (and replaces) the first
	// stage's replacement; the final verdict carries the last one.
	chain := Multi{replaceFault{seq: 10}, replaceFault{seq: 20}}
	if v := chain.Apply(0, tcp(1), netsim.AToB); v.Replace == nil || v.Replace.TCP.Seq != 20 {
		t.Fatalf("chained replace verdict = %+v", v)
	}
}

func TestScheduleDegradeRestores(t *testing.T) {
	nw := netsim.New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	l := nw.Connect(h1, h2, 1e6, 0.001, 0)
	eng := nw.Engine()
	// Nested windows: each degradation captures the rate at its own At and
	// restores it at its Until, so LIFO nesting composes and unwinds cleanly.
	ScheduleDegrade(eng, l, DegradeConfig{At: 1, Until: 4, Factor: 0.5})
	ScheduleDegrade(eng, l, DegradeConfig{At: 2, Until: 3, Factor: 0.1})
	check := func(at, want float64) {
		eng.At(at, func() {
			if math.Abs(l.RateBps-want) > 1e-6 {
				t.Errorf("at %v: RateBps = %v, want %v", at, l.RateBps, want)
			}
		})
	}
	check(1.5, 0.5e6)
	check(2.5, 0.05e6) // both degradations active, composed multiplicatively
	check(3.5, 0.5e6)  // inner window restored; outer still degraded
	check(4.5, 1e6)    // fully restored
	nw.RunUntil(5)
}

func TestScheduleCrashRestoresOnlyDownedLinks(t *testing.T) {
	nw := netsim.New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	r1 := nw.AddRouter("r1")
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	la := nw.Connect(h1, r1, 0, 0.001, 0)
	lb := nw.Connect(r1, h2, 0, 0.001, 0)
	nw.ComputeRoutes()
	eng := nw.Engine()

	eng.At(0.5, func() { lb.SetUp(false) }) // already down before the crash
	restarted := -1.0
	ScheduleCrash(eng, r1, CrashConfig{At: 1, RestartAt: 2}, func(now float64) { restarted = now })
	eng.At(1.5, func() {
		if la.Up() || lb.Up() {
			t.Errorf("links up mid-crash: la=%v lb=%v", la.Up(), lb.Up())
		}
	})
	eng.At(2.5, func() {
		if !la.Up() {
			t.Error("crashed link not restored at restart")
		}
		if lb.Up() {
			t.Error("restart revived a link the crash never took down")
		}
	})
	nw.RunUntil(3)
	if restarted != 2 {
		t.Fatalf("onRestart ran at %v, want 2", restarted)
	}
}
