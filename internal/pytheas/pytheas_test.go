package pytheas

import (
	"math"
	"testing"
	"testing/quick"

	"dui/internal/stats"
)

func TestGroupExploresThenExploits(t *testing.T) {
	g := NewGroup(E2Config{Options: 3})
	// Untried options are explored first.
	seen := map[Option]bool{}
	for i := 0; i < 3; i++ {
		o := g.Decide()
		if seen[o] {
			t.Fatalf("option %d re-chosen before exploring all", o)
		}
		seen[o] = true
		g.Report(o, float64(o)) // option 2 is best
	}
	// Feed clear evidence; the group must settle on the best option.
	for i := 0; i < 500; i++ {
		for o := 0; o < 3; o++ {
			g.Report(Option(o), float64(o))
		}
	}
	if got := g.Decide(); got != 2 {
		t.Fatalf("decided %d, want the clearly best option 2", got)
	}
}

func TestGroupWindowSlides(t *testing.T) {
	g := NewGroup(E2Config{Options: 1, Window: 10})
	for i := 0; i < 100; i++ {
		g.Report(0, 1)
	}
	for i := 0; i < 10; i++ {
		g.Report(0, 4)
	}
	if s := g.Score(0); s != 4 {
		t.Fatalf("window did not slide: score %v", s)
	}
	if n := len(g.Reports(0)); n != 10 {
		t.Fatalf("window size %d", n)
	}
}

// scoreOf scores one option fed the given reports, in order, under the
// aggregator.
func scoreOf(a Aggregator, reports []float64) float64 {
	g := NewGroup(E2Config{Options: 1, Window: len(reports), Aggregate: a})
	for _, r := range reports {
		g.Report(0, r)
	}
	return g.Score(0)
}

func TestAggregatorsAgainstContamination(t *testing.T) {
	// 20% extreme-low contamination: mean collapses, median and
	// MAD-filtered mean barely move — the §5 defense property.
	w := make([]float64, 100)
	for i := range w {
		w[i] = 4.5
	}
	for i := 0; i < 20; i++ {
		w[i] = 0.1
	}
	if m := scoreOf(Mean, w); m > 4.0 {
		t.Fatalf("mean unexpectedly robust: %v", m)
	}
	if m := scoreOf(Median, w); m != 4.5 {
		t.Fatalf("median = %v", m)
	}
	if m := scoreOf(MADFiltered(3), w); math.Abs(m-4.5) > 0.01 {
		t.Fatalf("MAD-filtered mean = %v", m)
	}
	if m := scoreOf(Trimmed(0.25), w); math.Abs(m-4.5) > 0.01 {
		t.Fatalf("trimmed mean = %v", m)
	}
}

func TestAggregatorsEmptyWindow(t *testing.T) {
	for name, a := range map[string]Aggregator{
		"mean": Mean, "median": Median, "mad": MADFiltered(3), "trim": Trimmed(0.2),
	} {
		if v := scoreOf(a, nil); v != 0 {
			t.Fatalf("%s(empty) = %v", name, v)
		}
	}
}

func TestCleanRunPicksGoodOption(t *testing.T) {
	res := Run(SimConfig{Seed: 2}, nil)
	if res.HonestQoELate < 4.0 {
		t.Fatalf("clean QoE = %v", res.HonestQoELate)
	}
	if res.LateShare[0] < 0.85 {
		t.Fatalf("good-option share = %v", res.LateShare[0])
	}
}

// TestPoisoningDegradesGroup is the §4.1 headline: a minority of bots
// degrades the whole group's decisions.
func TestPoisoningDegradesGroup(t *testing.T) {
	cfg := SimConfig{Seed: 2}
	clean := Run(cfg, nil)
	// 15% bots amplified 5x: enough weight to flip the group.
	atk := Poison{Bots: 150, ReportMultiplier: 5}.Defaults()
	poisoned := Run(cfg, atk)
	if poisoned.HonestQoELate > clean.HonestQoELate-1.0 {
		t.Fatalf("poisoning ineffective: %v vs clean %v", poisoned.HonestQoELate, clean.HonestQoELate)
	}
	if poisoned.LateShare[1] < 0.6 {
		t.Fatalf("group not steered to the bad option: share %v", poisoned.LateShare[1])
	}
}

// TestPoisonSweepMonotoneShape: more bots, more damage; and the damage is
// disproportionate (f of the clients degrade everyone).
func TestPoisonSweepMonotoneShape(t *testing.T) {
	cfg := SimConfig{Seed: 3, Sessions: 600, Epochs: 200}
	rows := PoisonSweep(cfg, []float64{0, 0.1, 0.3, 0.5}, 5)
	if rows[0].HonestQoELate < 4.0 {
		t.Fatalf("f=0 baseline degraded: %+v", rows[0])
	}
	last := rows[len(rows)-1]
	if last.HonestQoELate > 3.0 {
		t.Fatalf("f=0.5 did not damage the group: %+v", last)
	}
	// Damage is roughly monotone in f (allow small noise).
	for i := 1; i < len(rows); i++ {
		if rows[i].HonestQoELate > rows[i-1].HonestQoELate+0.4 {
			t.Fatalf("damage not monotone: %+v", rows)
		}
	}
}

// TestDefenseRestoresQoE: with the §5 countermeasures layered — report
// deduplication (input quality) plus MAD-filtered aggregation (outlier
// separation) — the same botnet loses most of its power. Either measure
// alone is insufficient against a volume-amplified botnet: dedup cuts the
// bots back to their population share, and the distribution filter then
// discards their extreme reports.
func TestDefenseRestoresQoE(t *testing.T) {
	base := SimConfig{Seed: 2}
	atk := Poison{Bots: 150, ReportMultiplier: 5}.Defaults()

	vulnerable := Run(base, atk)
	defended := base
	defended.E2.Aggregate = MADFiltered(3)
	defended.DedupReports = true
	robust := Run(defended, atk)
	if robust.HonestQoELate < vulnerable.HonestQoELate+0.8 {
		t.Fatalf("defense ineffective: defended %v vs vulnerable %v",
			robust.HonestQoELate, vulnerable.HonestQoELate)
	}
	if robust.HonestQoELate < 4.0 {
		t.Fatalf("defended QoE still low: %v", robust.HonestQoELate)
	}
}

// TestThrottleStampede: MitM throttling of the good site pushes the group
// onto the capacity-limited alternative and overloads it.
func TestThrottleStampede(t *testing.T) {
	out := RunThrottle(SimConfig{Seed: 4}, 0.7, 0.2)
	if out.PeakStampedeShare < 0.5 {
		t.Fatalf("no stampede: peak share on fallback = %v", out.PeakStampedeShare)
	}
	if out.QoEDrop < 0.8 {
		t.Fatalf("overload did not hurt: QoE drop = %v", out.QoEDrop)
	}
	// The attacked steady state never recovers the clean QoE: whichever
	// site the group sits on is either throttled or overloaded.
	if out.Attacked.HonestQoELate > out.Baseline.HonestQoELate-0.8 {
		t.Fatalf("group recovered: %v vs %v", out.Attacked.HonestQoELate, out.Baseline.HonestQoELate)
	}
}

func TestOptionModelCapacity(t *testing.T) {
	rng := stats.NewRNG(5)
	o := OptionModel{BaseQoE: 4, Noise: 0, Capacity: 100}
	if q := o.QoE(100, rng); q != 4 {
		t.Fatalf("at capacity q = %v", q)
	}
	if q := o.QoE(200, rng); q != 2 {
		t.Fatalf("2x overload q = %v", q)
	}
	if q := o.QoE(50, rng); q != 4 {
		t.Fatalf("underload q = %v", q)
	}
}

func TestQoEClamped(t *testing.T) {
	if err := quick.Check(func(base, noise float64, load uint8) bool {
		o := OptionModel{BaseQoE: math.Mod(math.Abs(base), 10), Noise: math.Mod(math.Abs(noise), 3), Capacity: 50}
		rng := stats.NewRNG(1)
		q := o.QoE(int(load), rng)
		return q >= 0 && q <= 5
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(SimConfig{Seed: 9, Sessions: 200, Epochs: 100}, Poison{Bots: 40}.Defaults())
	b := Run(SimConfig{Seed: 9, Sessions: 200, Epochs: 100}, Poison{Bots: 40}.Defaults())
	if a.HonestQoELate != b.HonestQoELate || a.LateShare[0] != b.LateShare[0] {
		t.Fatal("nondeterministic simulation")
	}
}

// TestPoisonSweepParallelMatchesSequential pins the runner's determinism
// contract for the E5 sweep: identical rows at any worker count. The
// MAD-filtered run shares one aggregator closure across the workers while
// each group keeps its own sorted windows, which -race checks.
func TestPoisonSweepParallelMatchesSequential(t *testing.T) {
	for name, agg := range map[string]Aggregator{"mean": Mean, "mad": MADFiltered(3)} {
		cfg := SimConfig{Seed: 4, Sessions: 200, Epochs: 80}
		cfg.E2.Aggregate = agg
		fractions := []float64{0, 0.1, 0.2, 0.3}
		a := PoisonSweepN(cfg, fractions, 5, 1)
		b := PoisonSweepN(cfg, fractions, 5, 4)
		if len(a) != len(b) {
			t.Fatalf("%s: row counts differ", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: row %d differs: %+v vs %+v", name, i, a[i], b[i])
			}
		}
		// The sweep must keep fraction order, not completion order.
		for i := range a {
			if a[i].BotFraction != fractions[i] {
				t.Fatalf("%s: row %d out of order: %+v", name, i, a[i])
			}
		}
	}
}
