package dapper

import (
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/tcpflow"
)

// Scenario is a ground-truth bottleneck for the diagnosis experiment.
type Scenario int

// Ground truths.
const (
	// TrueNetwork: AIMD flow through a lossy bottleneck.
	TrueNetwork Scenario = iota
	// TrueReceiver: small advertised window pins the flight.
	TrueReceiver
	// TrueSender: application-paced flow far below its window.
	TrueSender
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case TrueNetwork:
		return "network"
	case TrueReceiver:
		return "receiver"
	default:
		return "sender"
	}
}

// Attack selects the §3.2 manipulation applied between the endpoints and
// the vantage point.
type Attack int

// Attacks; None is the honest baseline.
const (
	None Attack = iota
	InjectRetransmissions
	ShrinkWindow
	InflateWindow
)

// String names the attack.
func (a Attack) String() string {
	switch a {
	case InjectRetransmissions:
		return "inject-retransmissions"
	case ShrinkWindow:
		return "shrink-window"
	case InflateWindow:
		return "inflate-window"
	default:
		return "none"
	}
}

// Outcome reports one run.
type Outcome struct {
	Scenario  Scenario
	Attack    Attack
	Diagnosis Diagnosis
	// Throughput is the flow's goodput in bytes over the run.
	Throughput int64
	// Budget counts packets the attacker fabricated or rewrote.
	Budget int
}

// RunConfig extends Run for the robustness matrix: guard programs ride
// on the vantage router next to the monitor, and a Chaos hook can
// install benign faults on the topology's links before traffic starts.
type RunConfig struct {
	Scenario Scenario
	Attack   Attack
	Duration float64
	// Programs are attached to the vantage router after the monitor (§5
	// metric-sanity guards observing the same traffic).
	Programs []netsim.Program
	// Chaos, if set, runs once routes are computed: srcLink is src–rV,
	// trunk rV–rB, bottleneck rB–dst.
	Chaos func(nw *netsim.Network, srcLink, trunk, bottleneck *netsim.Link)
}

// Run builds sender ── rV (vantage, DAPPER) ── rB (bottleneck) ── receiver,
// drives one TCP flow with the scenario's ground-truth bottleneck,
// optionally applies an attack tap on the receiver side of the vantage,
// and returns the monitor's majority diagnosis.
func Run(sc Scenario, atk Attack, duration float64) Outcome {
	return RunWith(RunConfig{Scenario: sc, Attack: atk, Duration: duration})
}

// RunWith is Run with guard programs and a benign-fault hook.
func RunWith(rc RunConfig) Outcome {
	sc, atk, duration := rc.Scenario, rc.Attack, rc.Duration
	nw := netsim.New()
	src := nw.AddHost("src", packet.MustParseAddr("20.1.0.1"))
	rV := nw.AddRouter("vantage")
	rB := nw.AddRouter("border")
	dst := nw.AddHost("dst", packet.MustParseAddr("10.9.0.1"))
	nw.Connect(src, rV, 0, 0.005, 0)
	// The bottleneck lives between border and destination.
	var bottleneck *netsim.Link
	switch sc {
	case TrueNetwork:
		// 2 Mbps with a tiny queue: AIMD probing causes periodic loss.
		nw.Connect(rV, rB, 0, 0.005, 0)
		bottleneck = nw.Connect(rB, dst, 2e6, 0.005, 5)
	default:
		nw.Connect(rV, rB, 0, 0.005, 0)
		bottleneck = nw.Connect(rB, dst, 50e6, 0.005, 0)
	}
	nw.ComputeRoutes()

	mon := NewMonitor()
	rV.AttachProgram(mon)
	for _, p := range rc.Programs {
		rV.AttachProgram(p)
	}

	// Attack taps sit so that the manipulated traffic passes the
	// monitor: data-direction injection on the sender side of the
	// vantage, ACK rewrites on the receiver side (ACKs flow receiver →
	// vantage → sender).
	srcLink := rV.Links()[0]
	ackLink := rV.Links()[1]
	if rc.Chaos != nil {
		rc.Chaos(nw, srcLink, ackLink, bottleneck)
	}
	budget := func() int { return 0 }
	switch atk {
	case InjectRetransmissions:
		b := &BlameNetwork{}
		b.Attach(srcLink)
		budget = func() int { return b.Injected }
	case ShrinkWindow:
		b := &BlameReceiver{}
		b.Attach(ackLink)
		budget = func() int { return b.Rewritten }
	case InflateWindow:
		b := &BlameSender{}
		b.Attach(ackLink)
		budget = func() int { return b.Rewritten }
	}

	key := packet.FlowKey{
		Src: src.Addr, Dst: dst.Addr,
		SrcPort: 5000, DstPort: 443, Proto: packet.ProtoTCP,
	}
	cfg := tcpflow.Config{Key: key}
	switch sc {
	case TrueNetwork:
		cfg.AIMD = true
		cfg.Window = 4
	case TrueReceiver:
		cfg.Window = 16          // cwnd cap ~23 KB
		cfg.RcvWindow = 8 * 1460 // ~11.7 KB pins the flight
	case TrueSender:
		cfg.Window = 40
		cfg.Pace = 20 // ~23 KB/s: far below the available window
	}
	se, de := tcpflow.NewEndpoint(src), tcpflow.NewEndpoint(dst)
	flow := tcpflow.Start(se, de, cfg)
	nw.RunUntil(duration)

	return Outcome{
		Scenario:   sc,
		Attack:     atk,
		Diagnosis:  mon.Majority(key),
		Throughput: flow.Stats().AckedBytes,
		Budget:     budget(),
	}
}

// confusionDuration is the simulated seconds of each ConfusionMatrix run.
const confusionDuration float64 = 25

// ConfusionMatrix runs every scenario × attack combination and returns
// the outcomes: the honest diagonal must be correct, and each attack must
// flip the diagnosis it targets.
func ConfusionMatrix() []Outcome {
	var out []Outcome
	for _, sc := range []Scenario{TrueNetwork, TrueReceiver, TrueSender} {
		for _, atk := range []Attack{None, InjectRetransmissions, ShrinkWindow, InflateWindow} {
			out = append(out, Run(sc, atk, confusionDuration))
		}
	}
	return out
}
