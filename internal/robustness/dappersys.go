package robustness

import (
	"dui/internal/dapper"
	"dui/internal/faults"
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
	"dui/internal/supervisor"
)

// dapperSystem scores DAPPER (§3.2): the three attacks forge wire bytes
// to implicate a bottleneck of the attacker's choosing —
// "inject-retrans" fabricates duplicate data so a sender-limited flow
// reads network-limited, "shrink-window" rewrites ACKs to a tiny
// advertised window, "inflate-window" advertises a phantom window so a
// receiver-limited flow reads sender-limited. The guarded arm rides
// supervisor.DapperGuard on the vantage router (metric-sanity clamps +
// a sanitized mirror of the decision tree). Damage is 1 when the
// operative diagnosis differs from the scenario's ground truth — the
// misdiagnosis the operator would act on. The operative diagnosis is
// the monitor's majority, or the guard's sanitized Diagnose when
// guarded.
//
// Profile mapping: gray installs loss/duplication/jitter on the
// sender-side access link (genuine duplicates arrive at genuine RTO
// spacing, so the instant-dup clamp tolerates them — the documented
// gray bound comes from DupP duplicating a packet verbatim in flight,
// which can land inside the 5 ms retransmission gap); flap bounces the bottleneck
// link briefly; degrade scales the bottleneck rate down mid-run
// (genuine congestion that must shift — legitimately — toward a
// network-limited diagnosis is avoided by degrading gently).
type dapperSystem struct{}

func (dapperSystem) Name() string { return "dapper" }
func (dapperSystem) Attacks() []string {
	return []string{"inject-retrans", "shrink-window", "inflate-window"}
}

// dapperScenario pairs each attack with the ground truth it subverts
// (the paper's confusion matrix diagonal).
func dapperScenario(attack string) (dapper.Scenario, dapper.Attack) {
	switch attack {
	case "inject-retrans":
		return dapper.TrueSender, dapper.InjectRetransmissions
	case "shrink-window":
		return dapper.TrueSender, dapper.ShrinkWindow
	case "inflate-window":
		return dapper.TrueReceiver, dapper.InflateWindow
	default:
		// Twin: an honest network-limited flow (the scenario whose
		// evidence — genuine retransmissions — the guard is most
		// tempted to over-sanitize).
		return dapper.TrueNetwork, dapper.None
	}
}

func dapperTruth(sc dapper.Scenario) dapper.Diagnosis {
	switch sc {
	case dapper.TrueNetwork:
		return dapper.NetworkLimited
	case dapper.TrueReceiver:
		return dapper.ReceiverLimited
	default:
		return dapper.SenderLimited
	}
}

func dapperChaos(prof Profile, seed uint64, dur float64) func(*netsim.Network, *netsim.Link, *netsim.Link, *netsim.Link) {
	e := prof.Intensity
	if e == 0 {
		return nil
	}
	switch prof.Name {
	case "gray":
		cfg := faults.GrayConfig{LossP: 0.01 * e, DupP: 0.01 * e, JitterP: 0.3 * e, Jitter: 0.002 * e}
		return func(nw *netsim.Network, srcLink, trunk, bottleneck *netsim.Link) {
			srcLink.SetFault(faults.NewGray(cfg, stats.ChildAt(seed, 3600)))
		}
	case "flap":
		return func(nw *netsim.Network, srcLink, trunk, bottleneck *netsim.Link) {
			faults.ScheduleFlap(nw.Engine(), bottleneck, faults.FlapConfig{
				Start: dur / 4, End: dur / 2,
				MeanDown: 0.03 * e, MeanUp: 3, MinDwell: 0.02,
			}, stats.ChildAt(seed, 3610))
		}
	case "degrade":
		return func(nw *netsim.Network, srcLink, trunk, bottleneck *netsim.Link) {
			faults.ScheduleDegrade(nw.Engine(), bottleneck, faults.DegradeConfig{
				At: dur / 2, Factor: 1 - 0.3*e,
			})
		}
	}
	return nil
}

func (dapperSystem) Run(attack string, guarded bool, prof Profile, seed uint64, quick bool) TrialResult {
	sc, atk := dapperScenario(attack)
	dur := 30.0
	if quick {
		dur = 20
	}
	rc := dapper.RunConfig{
		Scenario: sc,
		Attack:   atk,
		Duration: dur,
		Chaos:    dapperChaos(prof, seed, dur),
	}
	var g *supervisor.DapperGuard
	if guarded {
		g = &supervisor.DapperGuard{}
		rc.Programs = []netsim.Program{g}
	}
	res := dapper.RunWith(rc)

	key := packet.FlowKey{
		Src: packet.MustParseAddr("20.1.0.1"), Dst: packet.MustParseAddr("10.9.0.1"),
		SrcPort: 5000, DstPort: 443, Proto: packet.ProtoTCP,
	}
	diag := res.Diagnosis
	out := TrialResult{}
	if g != nil {
		diag = g.Diagnose(key)
		out.Detected = g.Flagged(key)
		out.Checks = g.Cost().Checks
	}
	if diag != dapperTruth(sc) {
		out.Damage = 1
	}
	return out
}
