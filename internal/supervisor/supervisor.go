// Package supervisor implements the §5 countermeasure architecture of the
// paper (Fig 3): data-driven systems — "drivers" — are paired with
// external supervisors that model plausible network behaviour, estimate
// the risk that the driver is being fed adversarial inputs ("driving
// under the influence"), and constrain the driver's allowed operating
// range.
//
// Every supervisor implements one contract, Guard[O]: Check consumes one
// observation of the guard's own type O and returns a Verdict, and Cost
// accounts the checks made and the flags raised. Each guard file asserts
// its Guard[O] instance at compile time, so wiring a guard to the wrong
// observation type is a build error, not a runtime panic. Check is the
// one entry point per supervisor; the Guard* helpers only wire a guard
// into a system's decision path.
//
// Three supervisors cover the paper's own §5 discussion:
//
//   - Blink (§5 "applicability"): learn the RTT distribution over many
//     flows, derive the expected RTO distribution upon a genuine failure,
//     and veto reroutes whose retransmission timing does not match it
//     (BlinkGuard over an RTOModel; DefaultRTOModel is the model trained
//     from a clean failover run). GuardPipeline guards one single-prefix
//     blink.Pipeline, so each prefix is judged by its own gaps.
//   - Pytheas: inspect the distribution of QoE reports within a group; a
//     deviating minority indicates ill-formed groups or malicious inputs
//     (PytheasGuard; the aggregation ablation lives in package pytheas).
//   - PCC: bound the trial amplitude ε (constraining the decision range,
//     countermeasure III, EpsRange) and flag loss that correlates with
//     the faster trials (input-quality check, countermeasure I, PCCGuard).
//
// The robustness matrix (internal/robustness) adds a supervisor for each
// of the remaining §3.2 case studies: SP-PIFO rank-inversion rate
// limiting (SPPIFOGuard), sketch cross-validation against a salted
// shadow table (SketchGuard), RON probe-consistency checks (RONGuard), a
// conntrack table-pressure guard (ConntrackGuard), DAPPER metric-sanity
// clamps (DapperGuard), and a BNN input-envelope check (BNNGuard).
//
// Every Check is total: degenerate observations (empty windows, zero
// counts, NaN or infinite values) yield a verdict with a finite risk in
// [0, 1], never a panic.
package supervisor

import "fmt"

// Guard is the common contract every per-system supervisor implements:
// it consumes observations of type O one at a time and keeps an account
// of the work done and the flags raised.
type Guard[O any] interface {
	// Check consumes one observation and returns the verdict it implies.
	Check(obs O) Verdict
	// Cost returns the accounting so far.
	Cost() GuardCost
}

// GuardCost accounts a guard's work: how many observations it examined
// and how many it flagged as implausible. Flags is the matrix's
// detection/false-veto numerator; Checks its cost column.
type GuardCost struct {
	Checks int
	Flags  int
}

// Verdict is a supervisor's judgement about a driver decision or input
// window.
type Verdict struct {
	// Plausible is false when the evidence indicates adversarial inputs.
	Plausible bool
	// Risk is a score in [0, 1]: 0 = clearly benign, 1 = clearly
	// adversarial. The veto threshold is the policy knob trading missed
	// attacks against blocked legitimate reactions.
	Risk float64
	// Reason is a human-readable explanation.
	Reason string
}

// String renders the verdict.
func (v Verdict) String() string {
	state := "plausible"
	if !v.Plausible {
		state = "IMPLAUSIBLE"
	}
	return fmt.Sprintf("%s (risk %.2f): %s", state, v.Risk, v.Reason)
}

// Range is an allowed operating range granted by a supervisor to a driver
// (countermeasure III): the driver may move its control variable only
// within it.
type Range struct{ Min, Max float64 }
