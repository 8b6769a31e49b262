package robustness

import (
	"context"
	"fmt"
	"io"

	"dui/internal/blink"
	"dui/internal/pcc"
	"dui/internal/pytheas"
	"dui/internal/runner"
	"dui/internal/supervisor"
)

// DefenseEval holds the E8 point evaluations of the paper's three §5
// countermeasures: the Blink RTO-plausibility guard against a genuine
// failure and the hijack, the Pytheas dedup + MAD-filtering defense and
// group-distribution detector against the botnet, and the PCC
// loss-correlation detector plus the ε clamp against the equalizer. The
// matrix subsumes these evaluations; this is the one place they are
// computed, for both WriteDefenseEval and duireport's E8 section.
type DefenseEval struct {
	// Genuine is a guarded genuine failure; Hijack the guarded §3.1
	// hijack. Both use supervisor.DefaultRTOModel.
	Genuine *blink.FailoverResult
	Hijack  *blink.HijackResult

	// Honest late QoE of a group with no attack, under a 15% botnet with
	// 5x report volume (mean aggregation), and under the same botnet
	// with dedup + MAD filtering; and the PytheasGuard verdict on a
	// representative poisoned report window.
	PytheasClean, PytheasAttacked, PytheasDefended float64
	PytheasDetector                                supervisor.Verdict

	// PCCGuard verdicts on a clean and an equalized flow, and the forced
	// oscillation each ε clamp allows (widest clamp first).
	PCCClean, PCCAttacked supervisor.Verdict
	Clamps                []EpsClamp
}

// EpsClamp is one ε clamp and the peak-to-peak forced-oscillation
// amplitude it bounds the equalizer to.
type EpsClamp struct{ Cap, Amp float64 }

// EvalDefenses computes the E8 evaluations at seed. The three systems are
// independent; workers parallelizes them on the trial runner without
// changing the result.
func EvalDefenses(seed uint64, workers int) *DefenseEval {
	d := &DefenseEval{}
	sections := []func(*DefenseEval, uint64){evalBlink, evalPytheas, evalPCC}
	runner.Map(context.Background(), sections, seed, runner.Config{Workers: workers},
		func(_ context.Context, _ runner.Trial, section func(*DefenseEval, uint64)) (struct{}, error) {
			section(d, seed)
			return struct{}{}, nil
		})
	return d
}

func evalBlink(d *DefenseEval, seed uint64) {
	model := supervisor.DefaultRTOModel()
	hook := func(p *blink.Pipeline) { supervisor.GuardPipeline(p, model) }
	d.Genuine = blink.RunFailover(blink.FailoverConfig{FailAt: 20, Duration: 45, Hook: hook})
	d.Hijack = blink.RunHijack(blink.HijackConfig{Seed: seed, Hook: hook})
}

func evalPytheas(d *DefenseEval, seed uint64) {
	base := pytheas.SimConfig{Seed: seed}
	atk := pytheas.Poison{Bots: 150, ReportMultiplier: 5}.Defaults()
	defended := base
	defended.E2.Aggregate = pytheas.MADFiltered(3)
	defended.DedupReports = true
	d.PytheasAttacked = pytheas.Run(base, atk).HonestQoELate
	d.PytheasDefended = pytheas.Run(defended, atk).HonestQoELate
	d.PytheasClean = pytheas.Run(base, nil).HonestQoELate
	d.PytheasDetector = (&supervisor.PytheasGuard{}).Check(poisonedWindow())
}

func evalPCC(d *DefenseEval, seed uint64) {
	runs := pcc.OscSweep([]pcc.OscConfig{
		{Duration: 90, Seed: seed},
		{Duration: 90, Seed: seed, Attack: true},
	}, 0)
	d.PCCClean = (&supervisor.PCCGuard{}).Check(runs[0].Records)
	d.PCCAttacked = (&supervisor.PCCGuard{}).Check(runs[1].Records)
	for _, cap := range []float64{0.05, 0.03, 0.01} {
		_, amp := pcc.ForcedOscillation(cap, 20)
		d.Clamps = append(d.Clamps, EpsClamp{Cap: cap, Amp: amp})
	}
}

// WriteDefenseEval renders the E8 §5 countermeasure report
// (duireport robustness -defense-eval) from EvalDefenses(seed, workers).
// The bytes are identical at every worker count.
func WriteDefenseEval(w io.Writer, seed uint64, workers int) {
	d := EvalDefenses(seed, workers)
	fmt.Fprintf(w, "§5 countermeasure evaluation\n")

	fmt.Fprintf(w, "\n[Blink supervisor] model trained from passively measured RTTs\n")
	fmt.Fprintf(w, "  genuine failure:  rerouted=%v latency=%.2fs vetoes=%d recovered=%d/%d\n",
		d.Genuine.Rerouted, d.Genuine.DetectionLatency, d.Genuine.VetoedReroutes,
		d.Genuine.RecoveredFlows, d.Genuine.Config.Flows)
	fmt.Fprintf(w, "  hijack attempt:   rerouted=%v vetoes=%d hijacked packets=%d (attacker held %d cells)\n",
		d.Hijack.Rerouted, d.Hijack.VetoedReroutes, d.Hijack.HijackedPackets, d.Hijack.MaliciousCellsAtTrigger)

	fmt.Fprintf(w, "\n[Pytheas defense] 15%% botnet with 5x report volume\n")
	fmt.Fprintf(w, "  clean QoE %.2f | attacked (mean agg) %.2f | defended (dedup+MAD) %.2f\n",
		d.PytheasClean, d.PytheasAttacked, d.PytheasDefended)
	fmt.Fprintf(w, "  group-distribution detector on a poisoned window: %s\n", d.PytheasDetector)

	fmt.Fprintf(w, "\n[PCC defense]\n")
	fmt.Fprintf(w, "  loss-correlation detector: clean=%s\n", d.PCCClean)
	fmt.Fprintf(w, "                             attacked=%s\n", d.PCCAttacked)
	for _, c := range d.Clamps {
		fmt.Fprintf(w, "  ε clamp %.2f -> forced oscillation bounded to ±%.0f%%\n", c.Cap, 100*c.Amp/2)
	}
}

// poisonedWindow builds a representative contaminated report window for
// the detector demonstration: 85% honest around QoE 4.5, 15% bots at 0.2.
func poisonedWindow() []float64 {
	w := make([]float64, 200)
	for i := range w {
		w[i] = 4.5
		if i%7 == 0 {
			w[i] = 0.2
		}
	}
	return w
}
