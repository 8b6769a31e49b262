package nethide

import (
	"testing"

	"dui/internal/graph"
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
)

func TestShortestPathsAndDensity(t *testing.T) {
	g := graph.Line(4) // 0-1-2-3: middle link 1-2 is hottest
	pairs := AllPairs(g)
	pm := ShortestPaths(g, pairs)
	if len(pm) != len(pairs) {
		t.Fatalf("paths for %d of %d pairs", len(pm), len(pairs))
	}
	hot, d := pm.MaxDensity()
	if hot != mkLink(1, 2) {
		t.Fatalf("hottest link = %v", hot)
	}
	// Pairs crossing 1-2: (0,2),(0,3),(1,2),(1,3) and reverses = 8.
	if d != 8 {
		t.Fatalf("density = %d", d)
	}
}

func TestEvaluateIdentity(t *testing.T) {
	g := graph.Abilene()
	pm := ShortestPaths(g, AllPairs(g))
	m := Evaluate(pm, pm)
	if m.Accuracy != 1 || m.Utility != 1 {
		t.Fatalf("identity metrics = %+v", m)
	}
	if m.MaxDensityPhys != m.MaxDensityVirt {
		t.Fatal("identity densities differ")
	}
}

func TestObfuscateMeetsCapAndTradesAccuracy(t *testing.T) {
	// A fat-tree has rich path diversity, so meaningful caps are
	// feasible.
	g := graph.FatTree(4)
	pairs := AllPairs(g)
	phys := ShortestPaths(g, pairs)
	_, physMax := phys.MaxDensity()
	rng := stats.NewRNG(1)

	cap1 := physMax * 3 / 4
	virt1, m1 := Obfuscate(g, pairs, Config{DensityCap: cap1}, rng.Child())
	if m1.MaxDensityVirt > cap1 {
		t.Fatalf("cap %d violated: %d", cap1, m1.MaxDensityVirt)
	}
	if m1.Accuracy <= 0.5 || m1.Accuracy >= 1 {
		t.Fatalf("accuracy = %v, expected lying but not much", m1.Accuracy)
	}
	// Tighter security costs more accuracy and cools the topology
	// further (the cap itself may be infeasible for the candidate set,
	// but the density must keep dropping substantially).
	cap2 := physMax / 2
	_, m2 := Obfuscate(g, pairs, Config{DensityCap: cap2}, rng.Child())
	if m2.MaxDensityVirt >= m1.MaxDensityVirt {
		t.Fatalf("tighter cap did not cool further: %d vs %d", m2.MaxDensityVirt, m1.MaxDensityVirt)
	}
	if m2.MaxDensityVirt > physMax*2/3 {
		t.Fatalf("density reduction too weak: %d of %d", m2.MaxDensityVirt, physMax)
	}
	if m2.Accuracy >= m1.Accuracy {
		t.Fatalf("tighter cap should cost accuracy: %v vs %v", m2.Accuracy, m1.Accuracy)
	}
	// Paths in the virtual topology must remain valid and loop-free.
	for pair, path := range virt1 {
		if path[0] != pair.Src || path[len(path)-1] != pair.Dst {
			t.Fatalf("invalid endpoints for %v: %v", pair, path)
		}
		seen := map[graph.NodeID]bool{}
		for _, n := range path {
			if seen[n] {
				t.Fatalf("loop in virtual path %v", path)
			}
			seen[n] = true
		}
	}
}

// TestObfuscateRespectsMinCut: Abilene's east–west cut has two links
// carrying 60 ordered cross pairs, so no virtual topology (with valid
// paths) can push the maximum density below 30. The search must reach
// that bound from the physical 32 and stop there — NetHide "limits the
// amount of lying to the minimum required".
func TestObfuscateRespectsMinCut(t *testing.T) {
	g := graph.Abilene()
	pairs := AllPairs(g)
	_, m := Obfuscate(g, pairs, Config{DensityCap: 16}, stats.NewRNG(2))
	if m.MaxDensityPhys != 32 {
		t.Fatalf("physical max density = %d, want 32", m.MaxDensityPhys)
	}
	if m.MaxDensityVirt < 30 {
		t.Fatalf("density %d below the min-cut bound 30: paths must be invalid", m.MaxDensityVirt)
	}
	if m.MaxDensityVirt >= 32 {
		t.Fatalf("no improvement achieved: %d", m.MaxDensityVirt)
	}
}

func TestObfuscateNoCapIsIdentity(t *testing.T) {
	g := graph.Abilene()
	pairs := AllPairs(g)
	_, m := Obfuscate(g, pairs, Config{}, stats.NewRNG(2))
	if m.Accuracy != 1 {
		t.Fatalf("no-cap obfuscation changed paths: %+v", m)
	}
}

// TestNoPairsIsEmpty: with no host pairs there is nothing to present, so
// both topologies are empty and the metrics are zero — degenerate but
// well-defined.
func TestNoPairsIsEmpty(t *testing.T) {
	g := graph.Abilene()
	if lie := MaliciousTopology(g, nil, 0, 1); len(lie) != 0 {
		t.Fatalf("malicious topology over no pairs: %v", lie)
	}
	virt, m := Obfuscate(g, nil, Config{}, stats.NewRNG(1))
	if len(virt) != 0 || m != (Metrics{}) {
		t.Fatalf("obfuscation over no pairs: %v %+v", virt, m)
	}
}

func TestAttackDegradedByObfuscation(t *testing.T) {
	g := graph.FatTree(4)
	pairs := AllPairs(g)
	phys := ShortestPaths(g, pairs)
	_, physMax := phys.MaxDensity()

	// Without NetHide the attacker's plan is optimal.
	clean := EvaluateAttack(phys, Survey(phys, pairs))
	if clean.Success != 1 {
		t.Fatalf("ground-truth attack success = %v", clean.Success)
	}

	virt, _ := Obfuscate(g, pairs, Config{DensityCap: physMax / 2}, stats.NewRNG(3))
	obf := EvaluateAttack(phys, Survey(virt, pairs))
	if obf.Success >= 1 {
		t.Fatalf("obfuscation did not reduce attack success: %+v", obf)
	}
}

func TestMaliciousOperatorHidesLink(t *testing.T) {
	g := graph.Abilene()
	pairs := AllPairs(g)
	phys := ShortestPaths(g, pairs)
	hot, _ := phys.MaxDensity()

	lie := MaliciousTopology(g, pairs, hot.A, hot.B)
	view := Survey(lie, pairs)
	if HiddenLinkVisible(view, hot.A, hot.B) {
		t.Fatal("hidden link still visible in traceroute view")
	}
	// The lie is unconstrained: accuracy may be poor, but the view must
	// still be plausible (valid endpoints).
	for pair, path := range view {
		if path[0] != pair.Src || path[len(path)-1] != pair.Dst {
			t.Fatalf("implausible lie for %v: %v", pair, path)
		}
	}
	// Attacker aiming at the hottest visible link no longer targets the
	// real one optimally.
	out := EvaluateAttack(phys, view)
	if out.TargetVirt == hot {
		t.Fatal("attacker still found the hidden link")
	}
}

func TestTracerouteMatchesPath(t *testing.T) {
	g := graph.Line(4)
	pm := ShortestPaths(g, AllPairs(g))
	hops := Traceroute(pm, 0, 3)
	want := []graph.NodeID{1, 2, 3}
	if len(hops) != len(want) {
		t.Fatalf("hops = %v", hops)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops = %v", hops)
		}
	}
	if Traceroute(pm, 0, 0) != nil {
		t.Fatal("self-traceroute should be nil")
	}
}

// TestResponderForgesReplies runs the packet-level NetHide deployment:
// probes entering a border router receive ICMP time-exceeded replies
// fabricated from the virtual topology, and the real interior stays
// hidden.
func TestResponderForgesReplies(t *testing.T) {
	// Physical: probe -- border -- realCore -- dst.
	// Virtual story: border -> decoy -> dst.
	nw := netsim.New()
	prober := nw.AddHost("prober", packet.MustParseAddr("20.0.0.1"))
	border := nw.AddRouter("border")
	realCore := nw.AddRouter("realCore")
	decoy := nw.AddRouter("decoy") // exists only as an address to show
	dstHost := nw.AddHost("dst", packet.MustParseAddr("10.9.0.1"))
	nw.Connect(prober, border, 0, 0.001, 0)
	nw.Connect(border, realCore, 0, 0.001, 0)
	nw.Connect(realCore, dstHost, 0, 0.001, 0)
	nw.ComputeRoutes()

	// Graph-node story: 0=border, 1=decoy, 2=dst.
	virt := PathMap{Pair{0, 2}: graph.Path{0, 1, 2}}
	nodes := []*netsim.Node{border, decoy, dstHost}
	border.AttachProgram(&Responder{
		Virt:  virt,
		Entry: 0,
		DstNode: func(a packet.Addr) (graph.NodeID, bool) {
			if a == dstHost.Addr {
				return 2, true
			}
			return 0, false
		},
		Addr: func(n graph.NodeID) packet.Addr { return nodes[n].Addr },
	})

	var replies []packet.Addr
	prober.SetReceiver(netsim.ReceiverFunc(func(now float64, p *packet.Packet) {
		if p.ICMP != nil && p.ICMP.Type == packet.ICMPTimeExceeded {
			replies = append(replies, p.Src)
		}
	}))
	for ttl := uint8(1); ttl <= 2; ttl++ {
		probe := packet.NewUDP(prober.Addr, dstHost.Addr, packet.UDPHeader{SrcPort: 33434, DstPort: 33434 + uint16(ttl)}, 60)
		probe.TTL = ttl
		prober.Send(probe)
	}
	nw.RunUntil(1)

	// TTL=1 expires at the border itself before the program runs: the
	// border's genuine reply. TTL=2 must be forged: it shows the decoy,
	// never realCore.
	if len(replies) != 2 {
		t.Fatalf("replies = %v", replies)
	}
	if replies[0] != border.Addr {
		t.Fatalf("hop1 = %v, want border", replies[0])
	}
	if replies[1] != decoy.Addr {
		t.Fatalf("hop2 = %v, want decoy (forged), not realCore %v", replies[1], realCore.Addr)
	}
}

func TestSurveyRoundTrips(t *testing.T) {
	g := graph.Abilene()
	pairs := AllPairs(g)
	pm := ShortestPaths(g, pairs)
	view := Survey(pm, pairs)
	m := Evaluate(pm, view)
	if m.Accuracy != 1 || m.Utility != 1 {
		t.Fatalf("survey of truth is not the truth: %+v", m)
	}
}

// TestSweepCapsParallelMatchesSequential pins the runner's determinism
// contract for the density-cap sweep and, under -race, doubles as proof
// that concurrent obfuscation searches can share the graph read-only.
func TestSweepCapsParallelMatchesSequential(t *testing.T) {
	g := graph.Abilene()
	pairs := AllPairs(g)
	caps := []int{32, 30, 24, 20}
	a := SweepCaps(g, pairs, caps, Config{}, 7, 1)
	b := SweepCaps(g, pairs, caps, Config{}, 7, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cap %d differs: %+v vs %+v", caps[i], a[i], b[i])
		}
	}
	// Tighter caps can only keep or lower the virtual hottest-link
	// density the attacker sees.
	for i := 1; i < len(a); i++ {
		if a[i].Metrics.MaxDensityVirt > a[i-1].Metrics.MaxDensityVirt {
			t.Fatalf("density not monotone under tighter caps: %+v then %+v", a[i-1], a[i])
		}
	}
}
