package supervisor

import (
	"math"
	"strings"
	"testing"

	"dui/internal/bnn"
	"dui/internal/pcc"
)

// drive returns a subtest that feeds obs, in order, to one guard through
// the Guard[O] contract and asserts totality on each call: no panic, a
// finite risk within [0, 1], and exactly one more check in the cost
// account.
func drive[O any](g Guard[O], obs ...O) func(*testing.T) {
	return func(t *testing.T) {
		for i, o := range obs {
			before := g.Cost().Checks
			v := func() (v Verdict) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("obs %d (%+v): panic: %v", i, o, r)
					}
				}()
				return g.Check(o)
			}()
			if !(v.Risk >= 0 && v.Risk <= 1) {
				t.Errorf("obs %d (%+v): risk %v outside [0, 1] (%v)", i, o, v.Risk, v)
			}
			if got := g.Cost().Checks; got != before+1 {
				t.Errorf("obs %d (%+v): Cost().Checks %d -> %d, want +1", i, o, before, got)
			}
		}
	}
}

// TestGuardsTotalOnDegenerateInput drives all nine guards, zero-valued
// and minimally configured, with degenerate observations: empty windows,
// zero counts and durations, NaN, and ±Inf.
func TestGuardsTotalOnDegenerateInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	gapWindows := [][]float64{
		nil, {}, {0}, {nan}, {inf}, {-inf}, {1e300}, {-1e300}, {nan, inf, -inf, 0, 0.2},
	}
	fill := func(n int, x float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = x
		}
		return w
	}
	mixed := append(fill(20, 4.5), nan, inf, -inf, 0, 0.2)
	records := func(loss float64) []pcc.MIRecord {
		var rs []pcc.MIRecord
		for i := 0; i < 12; i++ {
			rs = append(rs, pcc.MIRecord{Role: []string{"up", "down", "adjust", "filler"}[i%4], Loss: loss})
		}
		return rs
	}

	cases := []struct {
		name string
		run  func(*testing.T)
	}{
		{"blink/zero", drive[[]float64](&BlinkGuard{}, gapWindows...)},
		{"blink/untrained", drive[[]float64](&BlinkGuard{Model: NewRTOModel(nil, 0.2)}, gapWindows...)},
		{"blink/degenerate-rtts", drive[[]float64](&BlinkGuard{Model: NewRTOModel([]float64{nan, inf, -inf, 0}, 0)}, gapWindows...)},
		{"blink/trained", drive[[]float64](&BlinkGuard{Model: NewRTOModel([]float64{0.05}, 0.2)}, gapWindows...)},
		{"pytheas/zero", drive[[]float64](&PytheasGuard{},
			nil, []float64{}, fill(20, 0), fill(20, nan), fill(20, inf), fill(20, -inf), mixed)},
		{"pcc/zero", drive[[]pcc.MIRecord](&PCCGuard{},
			nil, []pcc.MIRecord{}, make([]pcc.MIRecord, 12), records(nan), records(inf), records(-inf), records(0))},
		{"sketch/zero", drive[SketchObs](&SketchGuard{},
			SketchObs{}, SketchObs{PrimaryResidue: 5}, SketchObs{M: -1, PrimaryResidue: 3},
			SketchObs{M: 1, PrimaryResidue: math.MaxInt}, SketchObs{M: 10, ShadowResidue: 10})},
		{"ron/zero", drive[ProbeObs](&RONGuard{},
			ProbeObs{RTT: nan}, ProbeObs{RTT: nan}, ProbeObs{I: 1, RTT: inf}, ProbeObs{I: 2, RTT: -inf},
			ProbeObs{I: 3}, ProbeObs{I: 3}, ProbeObs{I: 3, RTT: nan}, ProbeObs{I: 3, RTT: 1e300}, ProbeObs{RTT: 0.01})},
		{"conntrack/zero", drive[TableObs](&ConntrackGuard{},
			TableObs{}, TableObs{Now: nan}, TableObs{Len: 5, Rejected: 1}, TableObs{Len: 5, Rejected: 2},
			TableObs{Len: -1, Cap: -1, Rejected: 3}, TableObs{Now: inf, Len: 5, Rejected: 4})},
		{"dapper/zero", drive[DapperPacketObs](&DapperGuard{},
			DapperPacketObs{}, DapperPacketObs{IsData: true}, DapperPacketObs{IsData: true},
			DapperPacketObs{Now: nan, IsData: true}, DapperPacketObs{Now: inf, IsData: true},
			DapperPacketObs{Now: -inf, Window: 1}, DapperPacketObs{Now: 5, Window: -1}, DapperPacketObs{Now: 5, Window: 1})},
		{"bnn/zero", drive[BNNObs](&BNNGuard{}, BNNObs{}, BNNObs{X: ^bnn.Input(0)})},
		{"bnn/self", drive[BNNObs](NewBNNGuard([]bnn.Input{0}), BNNObs{}, BNNObs{X: ^bnn.Input(0)})},
		{"sppifo/zero", drive[SPPIFOObs](&SPPIFOGuard{},
			SPPIFOObs{}, SPPIFOObs{Rank: math.MinInt, PushDown: true}, SPPIFOObs{Rank: math.MaxInt},
			SPPIFOObs{Rank: -1, PushDown: true, Cost: -1}, SPPIFOObs{})},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// TestSketchGuardEmptyTable: a table with no cells holds no residue to
// compare, so its verdict is plausible at risk 0 (not a 0/0 NaN risk).
func TestSketchGuardEmptyTable(t *testing.T) {
	g := &SketchGuard{}
	v := g.Check(SketchObs{M: 0})
	if !v.Plausible || v.Risk != 0 {
		t.Fatalf("empty table: %v, want plausible at risk 0", v)
	}
}

// TestRONGuardIgnoresNaNBaseline: a NaN first probe must take the
// timeout path rather than become the pair's baseline, so the valid
// probes after it are admitted and the pair never counts as shifted.
func TestRONGuardIgnoresNaNBaseline(t *testing.T) {
	g := &RONGuard{}
	if v := g.Check(ProbeObs{I: 0, J: 1, RTT: math.NaN()}); v.Plausible {
		t.Fatalf("NaN probe admitted: %v", v)
	}
	for i := 0; i < 4; i++ {
		if v := g.Check(ProbeObs{I: 0, J: 1, RTT: 0.01}); !v.Plausible {
			t.Fatalf("valid probe %d flagged after a NaN probe: %v", i, v)
		}
	}
	if g.Shifts() != 0 {
		t.Fatalf("Shifts() = %d after a NaN probe and four valid ones, want 0", g.Shifts())
	}
}

// TestBlinkGuardUntrainedModel: a model built from no RTT samples has no
// evidence to judge by; the guard answers plausible at risk 0 and says
// why, like the insufficient-history verdicts of the other guards.
func TestBlinkGuardUntrainedModel(t *testing.T) {
	g := &BlinkGuard{Model: NewRTOModel(nil, 0.2)}
	v := g.Check([]float64{0.3, 0.3})
	if !v.Plausible || v.Risk != 0 || !strings.Contains(v.Reason, "untrained") {
		t.Fatalf("untrained model: %v, want plausible at risk 0 naming the untrained model", v)
	}
}
