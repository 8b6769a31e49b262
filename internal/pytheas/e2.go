// Package pytheas reimplements the decision core of Pytheas (Jiang et al.,
// NSDI'17) — the group-based, data-driven QoE optimization framework
// attacked in §4.1 of the paper — together with the report-poisoning and
// selective-throttling attacks and the §5 robust-aggregation defense.
//
// Pytheas groups sessions by similarity (ISP, location, content) and runs
// a real-time exploration–exploitation (E2) process per group: each
// session reports its QoE for the option it was assigned (e.g., a CDN
// site), and the group steers new assignments toward the option with the
// best recent reports. Decision-making at group granularity is exactly
// what the attacks exploit: a minority of manipulated reports drives the
// decision for every client in the group.
package pytheas

import (
	"math"

	"dui/internal/stats"
)

// Option indexes one of a group's choices (CDN site, bitrate, replica...).
type Option int

// Aggregator reduces an option's window of QoE reports to a single score.
// Mean is Pytheas' default; Median/Trimmed/MADFiltered are the §5 defense
// ablation.
type Aggregator func(w *Window) float64

// Mean is the default (attack-prone) aggregator.
func Mean(w *Window) float64 { return stats.Mean(w.Values()) }

// Median aggregates by the 50th percentile.
func Median(w *Window) float64 {
	if w.Len() == 0 {
		return 0
	}
	return stats.QuantileSorted(w.Sorted(), 0.5)
}

// Trimmed returns a trimmed-mean aggregator discarding the given fraction
// at each tail.
func Trimmed(frac float64) Aggregator {
	return func(w *Window) float64 {
		return stats.TrimmedMeanSorted(w.Sorted(), frac)
	}
}

// MADFiltered is the §5 defense: it inspects the distribution of reports
// within the group and discards reports farther than k MADs from the
// median ("the low-throughput clients can be tackled separately, removing
// their impact on the larger population"), then averages the rest.
func MADFiltered(k float64) Aggregator {
	return func(w *Window) float64 {
		if w.Len() == 0 {
			return 0
		}
		med, mad := stats.MedianMADSorted(w.Sorted())
		if mad == 0 {
			return med
		}
		// The kept reports are summed in arrival order, as stats.Mean
		// over them would.
		sum, kept := 0.0, 0
		for _, x := range w.Values() {
			if math.Abs(x-med) <= k*mad {
				sum += x
				kept++
			}
		}
		if kept == 0 {
			return med
		}
		return sum / float64(kept)
	}
}

// E2Config parameterizes a group's exploration–exploitation process.
type E2Config struct {
	// Options is the number of choices.
	Options int
	// Window is the number of recent reports kept per option.
	Window int
	// ExploreBonus is the UCB exploration constant.
	ExploreBonus float64
	// Aggregate reduces an option's report window to its score.
	Aggregate Aggregator
}

// Defaults fills Pytheas-like parameters: 2 options, 200-report windows,
// mean aggregation.
func (c E2Config) Defaults() E2Config {
	if c.Options <= 0 {
		c.Options = 2
	}
	if c.Window <= 0 {
		c.Window = 200
	}
	if c.ExploreBonus <= 0 {
		c.ExploreBonus = 0.3
	}
	if c.Aggregate == nil {
		c.Aggregate = Mean
	}
	return c
}

// Group is the per-group E2 state: a sliding window of QoE reports per
// option and a UCB decision rule over the aggregated scores. A Group is
// not safe for concurrent use; Score may update a window's sorted view.
type Group struct {
	cfg     E2Config
	windows []Window
	total   int
}

// NewGroup returns a group with the (defaulted) config.
func NewGroup(cfg E2Config) *Group {
	cfg = cfg.Defaults()
	g := &Group{cfg: cfg, windows: make([]Window, cfg.Options)}
	for i := range g.windows {
		g.windows[i].size = cfg.Window
	}
	return g
}

// Report records one QoE measurement for an option.
func (g *Group) Report(opt Option, qoe float64) {
	g.windows[opt].push(qoe)
	g.total++
}

// Score returns the aggregated QoE score of an option (0 when no data).
func (g *Group) Score(opt Option) float64 {
	return g.cfg.Aggregate(&g.windows[opt])
}

// Reports returns a copy of the current report window for an option.
func (g *Group) Reports(opt Option) []float64 {
	return append([]float64(nil), g.windows[opt].Values()...)
}

// Decide returns the option for the next session: the one maximizing
// score + bonus·sqrt(ln(total)/n), with unexplored options tried first.
func (g *Group) Decide() Option {
	best := Option(0)
	bestScore := math.Inf(-1)
	for i := range g.windows {
		n := g.windows[i].Len()
		if n == 0 {
			return Option(i) // explore untried options immediately
		}
		score := g.Score(Option(i)) +
			g.cfg.ExploreBonus*math.Sqrt(math.Log(float64(g.total+1))/float64(n))
		if score > bestScore {
			bestScore = score
			best = Option(i)
		}
	}
	return best
}
