package core

import (
	"fmt"
	"math"
	"sort"

	"dui/internal/blink"
	"dui/internal/bnn"
	"dui/internal/conntrack"
	"dui/internal/dapper"
	"dui/internal/graph"
	"dui/internal/nethide"
	"dui/internal/pcc"
	"dui/internal/pytheas"
	"dui/internal/ron"
	"dui/internal/sketch"
	"dui/internal/sppifo"
)

// Summary is the uniform result of one catalog run: named scalar metrics
// plus a one-line interpretation.
type Summary struct {
	Metrics map[string]float64
	Note    string
}

// Metric returns a metric by name (NaN when absent).
func (s Summary) Metric(name string) float64 {
	if v, ok := s.Metrics[name]; ok {
		return v
	}
	return math.NaN()
}

// Names returns the metric names sorted.
func (s Summary) Names() []string {
	names := make([]string, 0, len(s.Metrics))
	for n := range s.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CaseStudy is one attack from the paper, wired to its implementation
// with fast-but-representative defaults.
type CaseStudy struct {
	// Name identifies the attack; System the victim; Section the paper
	// section describing it.
	Name, System, Section string
	// MinPrivilege is the weakest attacker that can mount it; Target the
	// §2.2 class; Impacts the consequences.
	MinPrivilege Privilege
	Target       Target
	Impacts      []Impact
	// Run executes a reduced-scale version and returns its metrics.
	Run func(seed uint64) Summary
}

// String renders the catalog row header.
func (c CaseStudy) String() string {
	return fmt.Sprintf("%-22s %-10s §%-4s %-8s %-14s %s",
		c.Name, c.System, c.Section, c.MinPrivilege, c.Target, ImpactsString(c.Impacts))
}

// Catalog returns every implemented case study.
func Catalog() []CaseStudy {
	return []CaseStudy{
		{
			Name: "fake-retransmissions", System: "Blink", Section: "3.1",
			MinPrivilege: Host, Target: Infrastructure,
			Impacts: []Impact{Privacy, Performance, Reachability},
			Run: func(seed uint64) Summary {
				res := blink.RunHijack(blink.HijackConfig{Seed: seed})
				m := map[string]float64{
					"malicious_cells_at_trigger": float64(res.MaliciousCellsAtTrigger),
					"rerouted":                   b2f(res.Rerouted),
					"hijacked_packets":           float64(res.HijackedPackets),
					"reroute_latency_s":          res.Latency,
				}
				return Summary{Metrics: m, Note: "host-level flows hijack a healthy prefix via Blink"}
			},
		},
		{
			Name: "report-poisoning", System: "Pytheas", Section: "4.1",
			MinPrivilege: Host, Target: Endpoint,
			Impacts: []Impact{Performance, RevenueLoss},
			Run: func(seed uint64) Summary {
				cfg := pytheas.SimConfig{Seed: seed, Sessions: 600, Epochs: 200}
				clean := pytheas.Run(cfg, nil)
				atk := pytheas.Poison{Bots: 90, ReportMultiplier: 5}.Defaults()
				poisoned := pytheas.Run(cfg, atk)
				return Summary{Metrics: map[string]float64{
					"clean_qoe":    clean.HonestQoELate,
					"poisoned_qoe": poisoned.HonestQoELate,
					"qoe_drop":     clean.HonestQoELate - poisoned.HonestQoELate,
					"bad_share":    poisoned.LateShare[1],
				}, Note: "15% bots with 5x report volume degrade the whole group"}
			},
		},
		{
			Name: "utility-equalizer", System: "PCC", Section: "4.2",
			MinPrivilege: MitM, Target: Endpoint,
			Impacts: []Impact{Performance},
			Run: func(seed uint64) Summary {
				clean := pcc.RunOscillation(pcc.OscConfig{Duration: 60, Seed: seed})
				attacked := pcc.RunOscillation(pcc.OscConfig{Duration: 60, Seed: seed, Attack: true})
				return Summary{Metrics: map[string]float64{
					"clean_rate":    clean.Flows[0].MeanRateLate,
					"attacked_rate": attacked.Flows[0].MeanRateLate,
					"osc_amplitude": attacked.Flows[0].OscAmplitude,
					"drop_budget":   attacked.DropFraction,
				}, Note: "tied utility trials pin the flow near its start rate"}
			},
		},
		{
			Name: "fake-topology", System: "NetHide/traceroute", Section: "4.3",
			MinPrivilege: Operator, Target: Endpoint,
			Impacts: []Impact{SituationalAwareness, SecurityImpact},
			Run: func(seed uint64) Summary {
				g := graph.Abilene()
				pairs := nethide.AllPairs(g)
				phys := nethide.ShortestPaths(g, pairs)
				hot, _ := phys.MaxDensity()
				lie := nethide.MaliciousTopology(g, pairs, hot.A, hot.B)
				view := nethide.Survey(lie, pairs)
				out := nethide.EvaluateAttack(phys, view, 0)
				met := nethide.Evaluate(phys, view)
				return Summary{Metrics: map[string]float64{
					"hidden_link_visible": b2f(nethide.HiddenLinkVisible(view, hot.A, hot.B)),
					"attack_success":      out.Success,
					"view_accuracy":       met.Accuracy,
				}, Note: "forged ICMP answers hide the true bottleneck from traceroute"}
			},
		},
		{
			Name: "adversarial-ranks", System: "SP-PIFO", Section: "3.2",
			MinPrivilege: Host, Target: Infrastructure,
			Impacts: []Impact{Performance},
			Run: func(seed uint64) Summary {
				out := sppifo.Experiment{Seed: seed}.Run()
				return Summary{Metrics: map[string]float64{
					"random_excess":      float64(out.RandomExcess),
					"adversarial_excess": float64(out.AdversarialExcess),
					"amplification":      out.Amplification,
				}, Note: "crafted rank sequences break the random-arrival assumption"}
			},
		},
		{
			Name: "sketch-pollution", System: "FlowRadar", Section: "3.2",
			MinPrivilege: Host, Target: Infrastructure,
			Impacts: []Impact{SituationalAwareness},
			Run: func(seed uint64) Summary {
				rows := sketch.PollutionExperiment{Seed: seed}.Run([]int{400})
				m := map[string]float64{}
				for _, r := range rows {
					if r.Crafted {
						m["crafted_attack_decoded"] = r.AttackDecoded
						m["crafted_residue"] = float64(r.Residue)
					} else {
						m["random_attack_decoded"] = r.AttackDecoded
					}
				}
				vict, others := sketch.PollutionExperiment{Seed: seed}.RunTargeted(400, 2)
				m["victim_hidden"] = b2f(!vict)
				m["other_legit_decoded"] = others
				return Summary{Metrics: m, Note: "crafted flow labels vanish from (and hide a victim in) the statistics"}
			},
		},
		{
			Name: "diagnosis-misblaming", System: "DAPPER", Section: "3.2",
			MinPrivilege: MitM, Target: Endpoint,
			Impacts: []Impact{SituationalAwareness},
			Run: func(seed uint64) Summary {
				honest := dapper.Run(dapper.TrueSender, dapper.None, 20)
				blamed := dapper.Run(dapper.TrueSender, dapper.InjectRetransmissions, 20)
				return Summary{Metrics: map[string]float64{
					"honest_is_sender":        b2f(honest.Diagnosis == dapper.SenderLimited),
					"attacked_blames_network": b2f(blamed.Diagnosis == dapper.NetworkLimited),
					"injected_packets":        float64(blamed.Budget),
				}, Note: "duplicated segments falsely trigger the network-congestion recourse"}
			},
		},
		{
			Name: "state-exhaustion", System: "SilkRoad-style LB", Section: "3.2",
			MinPrivilege: Host, Target: Infrastructure,
			Impacts: []Impact{Performance, Reachability},
			Run: func(seed uint64) Summary {
				res := conntrack.RunExhaustion(conntrack.ExhaustionConfig{Seed: seed, AttackSYNRate: 2000})
				return Summary{Metrics: map[string]float64{
					"table_occupancy": float64(res.TableOccupancy),
					"broken_fraction": res.BrokenFraction,
					"rejected":        float64(res.Rejected),
				}, Note: "a spoofed SYN flood squeezes legitimate state out of switch memory"}
			},
		},
		{
			Name: "adversarial-examples", System: "in-network BNN", Section: "3.2",
			MinPrivilege: Host, Target: Infrastructure,
			Impacts: []Impact{SecurityImpact},
			Run: func(seed uint64) Summary {
				acc, rows := bnn.Experiment{Seed: seed | 1}.Run([]int{4})
				m := map[string]float64{"student_accuracy": acc}
				for _, r := range rows {
					if r.Crafted {
						m["crafted_evasion"] = r.SuccessRate
						m["mean_bit_flips"] = r.MeanFlips
					} else {
						m["random_evasion"] = r.SuccessRate
					}
				}
				return Summary{Metrics: m, Note: "a few header-bit flips evade the line-rate classifier"}
			},
		},
		{
			Name: "probe-manipulation", System: "RON", Section: "3.2",
			MinPrivilege: MitM, Target: Infrastructure,
			Impacts: []Impact{Performance, Privacy},
			Run: func(seed uint64) Summary {
				out := ron.RunProbeAttack(8, seed, func(o *ron.Overlay) (ron.ProbeTamper, int) {
					return ron.DelayProbes(0, 1, 0.2), -1
				}, 0, 1)
				return Summary{Metrics: map[string]float64{
					"diverted":      b2f(out.Diverted),
					"inflation":     out.Inflation,
					"tamper_budget": out.TamperBudget,
				}, Note: "delaying probes alone diverts data off a healthy path"}
			},
		},
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
