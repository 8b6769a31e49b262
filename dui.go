package dui

import (
	"dui/internal/blink"
	"dui/internal/bnn"
	"dui/internal/conntrack"
	"dui/internal/core"
	"dui/internal/dapper"
	"dui/internal/graph"
	"dui/internal/nethide"
	"dui/internal/pcc"
	"dui/internal/pytheas"
	"dui/internal/ron"
	"dui/internal/sketch"
	"dui/internal/sppifo"
	"dui/internal/stats"
	"dui/internal/supervisor"
	"dui/internal/trace"
)

// Threat model (§2).
type (
	// Privilege is an attacker level: Host, MitM, or Operator.
	Privilege = core.Privilege
	// Target is an attack target class.
	Target = core.Target
	// Impact classifies attack consequences.
	Impact = core.Impact
	// CaseStudy is one implemented attack with a uniform runner.
	CaseStudy = core.CaseStudy
	// Summary is a case study's metric set.
	Summary = core.Summary
)

// Threat-model constants.
const (
	Host     = core.Host
	MitM     = core.MitM
	Operator = core.Operator

	Infrastructure = core.Infrastructure
	Endpoint       = core.Endpoint
)

// Catalog returns every implemented case-study attack.
func Catalog() []CaseStudy { return core.Catalog() }

// Blink (§3.1).
type (
	// BlinkConfig is Blink's data-plane configuration.
	BlinkConfig = blink.Config
	// BlinkModel is the §3.1 theoretical attack model behind Fig 2.
	BlinkModel = blink.Model
	// Fig2Config / Fig2Result parameterize and report the Fig 2
	// reproduction.
	Fig2Config = blink.Fig2Config
	Fig2Result = blink.Fig2Result
	// HijackConfig / HijackResult are the end-to-end E3 attack.
	HijackConfig = blink.HijackConfig
	HijackResult = blink.HijackResult
	// FailoverConfig / FailoverResult exercise Blink's legitimate
	// function.
	FailoverConfig = blink.FailoverConfig
	FailoverResult = blink.FailoverResult
)

// RunFig2 reproduces Fig 2 (theory envelopes + trace-driven simulations).
func RunFig2(cfg Fig2Config) *Fig2Result { return blink.RunFig2(cfg) }

// RunHijack runs the §3.1 traffic-hijack attack end to end.
func RunHijack(cfg HijackConfig) *HijackResult { return blink.RunHijack(cfg) }

// HijackTrials runs n independent hijack experiments in parallel
// (workers = 0 means GOMAXPROCS) with per-trial seeds derived from
// cfg.Seed; HijackEnsemble/SummarizeHijacks aggregate the outcomes.
func HijackTrials(cfg HijackConfig, n, workers int) []*HijackResult {
	return blink.HijackTrials(cfg, n, workers)
}

// HijackEnsemble summarizes a HijackTrials run.
type HijackEnsemble = blink.HijackEnsemble

// SummarizeHijacks aggregates hijack trials into ensemble statistics.
func SummarizeHijacks(results []*HijackResult) HijackEnsemble { return blink.Summarize(results) }

// RunFailover runs Blink's legitimate failure recovery.
func RunFailover(cfg FailoverConfig) *FailoverResult { return blink.RunFailover(cfg) }

// RequiredQm returns the malicious traffic fraction the Blink attack
// needs for a given flow-residence time tR and time budget.
func RequiredQm(cells, threshold int, tr, budget, confidence float64) float64 {
	return blink.RequiredQm(cells, threshold, tr, budget, confidence)
}

// SyntheticSurvey generates the E2 prefix population; RunSurvey measures
// per-prefix tR and attack difficulty.
func SyntheticSurvey(n int, seed uint64) []trace.SurveyPrefix {
	return trace.SyntheticSurvey(n, stats.NewRNG(seed))
}

// RunSurvey measures tR and required qm for each prefix workload.
func RunSurvey(cfg BlinkConfig, prefixes []trace.SurveyPrefix, flows int, seed uint64) []blink.SurveyRow {
	return blink.RunSurvey(cfg, prefixes, flows, seed)
}

// RunSurveyN is RunSurvey with an explicit parallel worker count
// (0 = GOMAXPROCS); rows are identical at every worker count.
func RunSurveyN(cfg BlinkConfig, prefixes []trace.SurveyPrefix, flows int, seed uint64, workers int) []blink.SurveyRow {
	return blink.RunSurveyN(cfg, prefixes, flows, seed, workers)
}

// Pytheas (§4.1).
type (
	// PytheasConfig parameterizes the group simulation.
	PytheasConfig = pytheas.SimConfig
	// PoisonAttack is the botnet report-poisoning attack.
	PoisonAttack = pytheas.Poison
	// ThrottleAttack is the MitM/operator selective-throttling attack.
	ThrottleAttack = pytheas.Throttle
)

// RunPytheas simulates one group under an attacker (nil = baseline).
func RunPytheas(cfg PytheasConfig, atk pytheas.Attacker) *pytheas.SimResult {
	return pytheas.Run(cfg, atk)
}

// PoisonSweep sweeps botnet fractions (E5).
func PoisonSweep(cfg PytheasConfig, fractions []float64, multiplier int) []pytheas.PoisonRow {
	return pytheas.PoisonSweep(cfg, fractions, multiplier)
}

// PoisonSweepN is PoisonSweep with an explicit parallel worker count
// (0 = GOMAXPROCS); rows are identical at every worker count.
func PoisonSweepN(cfg PytheasConfig, fractions []float64, multiplier, workers int) []pytheas.PoisonRow {
	return pytheas.PoisonSweepN(cfg, fractions, multiplier, workers)
}

// RunThrottle runs the CDN-stampede attack.
func RunThrottle(cfg PytheasConfig, coverage, severity float64) *pytheas.ThrottleOutcome {
	return pytheas.RunThrottle(cfg, coverage, severity)
}

// PCC (§4.2).
type (
	// PCCConfig parameterizes one PCC flow; OscConfig the E4 experiment.
	PCCConfig = pcc.Config
	OscConfig = pcc.OscConfig
	OscResult = pcc.OscResult
)

// RunOscillation runs the E4 experiment (clean or attacked).
func RunOscillation(cfg OscConfig) *OscResult { return pcc.RunOscillation(cfg) }

// OscSweep runs several E4 configurations in parallel (workers = 0 means
// GOMAXPROCS), returning results in configuration order.
func OscSweep(cfgs []OscConfig, workers int) []*OscResult { return pcc.OscSweep(cfgs, workers) }

// ForcedOscillation is the analytic ±5% oscillation model of §4.2.
func ForcedOscillation(epsMin, epsMax float64, rounds int) ([]float64, float64) {
	return pcc.ForcedOscillation(epsMin, epsMax, rounds)
}

// NetHide (§4.3).
type (
	// NetHideConfig parameterizes the obfuscation search.
	NetHideConfig = nethide.Config
	// PathMap is a (physical or virtual) topology as traceroute sees it.
	PathMap = nethide.PathMap
)

// Obfuscate computes a NetHide virtual topology for the graph.
func Obfuscate(g *graph.Graph, pairs []nethide.Pair, cfg NetHideConfig, seed uint64) (PathMap, nethide.Metrics) {
	return nethide.Obfuscate(g, pairs, cfg, stats.NewRNG(seed))
}

// MaliciousTopology computes the §4.3 operator lie hiding one link.
func MaliciousTopology(g *graph.Graph, pairs []nethide.Pair, a, b graph.NodeID) PathMap {
	return nethide.MaliciousTopology(g, pairs, a, b)
}

// Traceroute simulates the tool over a presented topology.
func Traceroute(pm PathMap, src, dst graph.NodeID) []graph.NodeID {
	return nethide.Traceroute(pm, src, dst)
}

// Topology constructors for experiments.
var (
	Abilene = graph.Abilene
	FatTree = graph.FatTree
)

// Breadth systems (§3.2).

// RunSPPIFO compares PIFO, SP-PIFO under random ranks, and SP-PIFO under
// the adversarial rank sequence.
func RunSPPIFO(queues int, seed uint64) sppifo.Outcome {
	return sppifo.Experiment{Queues: queues, Seed: seed}.Run()
}

// RunSketchPollution sweeps adversarial flow counts against FlowRadar
// decoding.
func RunSketchPollution(seed uint64, attackCounts []int) []sketch.PollutionRow {
	return sketch.PollutionExperiment{Seed: seed}.Run(attackCounts)
}

// RunProbeAttack runs the RON probe-manipulation attack.
func RunProbeAttack(nodes int, seed uint64, extraDelay float64) ron.Outcome {
	return ron.RunProbeAttack(nodes, seed, func(o *ron.Overlay) (ron.ProbeTamper, int) {
		return ron.DelayProbes(0, 1, extraDelay), -1
	}, 0, 1)
}

// DAPPER (§3.2): TCP performance diagnosis and its mis-blaming attacks.
type (
	// DapperScenario is a ground-truth bottleneck; DapperAttack a header
	// manipulation.
	DapperScenario = dapper.Scenario
	DapperAttack   = dapper.Attack
)

// DAPPER scenarios and attacks.
const (
	TrueNetwork  = dapper.TrueNetwork
	TrueReceiver = dapper.TrueReceiver
	TrueSender   = dapper.TrueSender

	NoDapperAttack        = dapper.None
	InjectRetransmissions = dapper.InjectRetransmissions
	ShrinkWindow          = dapper.ShrinkWindow
	InflateWindow         = dapper.InflateWindow
)

// RunDapper diagnoses one flow under a ground truth and an attack.
func RunDapper(sc DapperScenario, atk DapperAttack, duration float64) dapper.Outcome {
	return dapper.Run(sc, atk, duration)
}

// DapperConfusionMatrix runs every scenario × attack combination.
func DapperConfusionMatrix(duration float64) []dapper.Outcome {
	return dapper.ConfusionMatrix(duration)
}

// RunStateExhaustion runs the SilkRoad-style state-exhaustion attack.
func RunStateExhaustion(cfg conntrack.ExhaustionConfig) *conntrack.ExhaustionResult {
	return conntrack.RunExhaustion(cfg)
}

// RunBNNEvasion trains an in-network binary classifier and measures
// adversarial-example evasion at the given flip budgets.
func RunBNNEvasion(seed uint64, budgets []int) (studentAcc float64, rows []bnn.EvasionRow) {
	return bnn.Experiment{Seed: seed}.Run(budgets)
}

// Countermeasures (§5).
type (
	// Verdict is a supervisor's plausibility judgement.
	Verdict = supervisor.Verdict
	// RTOModel is the Blink supervisor's retransmission-timing model.
	RTOModel = supervisor.RTOModel
	// PCCGuard flags loss correlated with PCC's faster rate trials.
	PCCGuard = supervisor.PCCGuard
	// PytheasGuard flags a deviating minority in a Pytheas group.
	PytheasGuard = supervisor.PytheasGuard
)

// NewRTOModel trains the Blink supervisor from passive RTT measurements.
func NewRTOModel(srtts []float64, rtoMin float64) *RTOModel {
	return supervisor.NewRTOModel(srtts, rtoMin)
}

// DefaultRTOModel is the Blink supervisor trained from a clean failover
// run, built once per process.
var DefaultRTOModel = supervisor.DefaultRTOModel

// GuardPipeline installs the Blink supervisor on a pipeline.
var GuardPipeline = supervisor.GuardPipeline
