package fuzz

import (
	"dui/internal/scenario"
)

// DefaultShrinkBudget bounds how many candidate runs one shrink spends
// when its caller gives no budget.
const DefaultShrinkBudget = 400

// Shrink greedily minimizes s while the given oracle rule keeps firing,
// and returns the smallest reproducer found plus the number of candidate
// runs spent. The passes table runs coarse to fine — drop workloads, cut
// flow counts, drop failures, taps, Blink, gray failures, flaps,
// degradations and crashes, remove and bypass nodes, then round
// parameters — and repeats until a full sweep accepts nothing or the
// budget is exhausted. Shrinking is sequential and deterministic: the
// result depends only on (s, rule, budget).
//
// Shrinking preserves the reproducer's verdict class, not just the rule
// name: if the original scenario is adversarial (it carries attack
// workloads or MitM taps), every accepted candidate must remain
// adversarial. Without this, a rule that also fires through a benign
// cause lets the drop-workloads/drop-taps passes strip the attack
// machinery, and the "minimal" reproducer no longer witnesses the attack
// at all — attack specs are kept exactly when they are load-bearing for
// the adversarial reading of the failure, which is what the corpus entry
// was filed for.
func Shrink(s *scenario.Scenario, rule string, budget int) (*scenario.Scenario, int) {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	wantAdv := adversarial(s)
	spent := 0
	cur := s.Clone()
	improved := true
	try := func(e edit) bool {
		if spent >= budget {
			return false
		}
		c := cur.Clone()
		// Structural rejections spend no budget, like Validate failures:
		// a candidate that left the original's verdict class is not worth
		// a run.
		if !e(&c) || c.Validate() != nil || (wantAdv && !adversarial(&c)) {
			return false
		}
		spent++
		var rep scenario.Report
		if rule == scenario.RuleDeterminism {
			rep = scenario.RunChecked(&c, scenario.Options{})
		} else {
			rep = scenario.Run(&c, scenario.Options{})
		}
		if !rep.HasRule(rule) {
			return false
		}
		cur, improved = c, true
		return true
	}
	for improved && spent < budget {
		improved = false
		for _, p := range passes {
			p(&cur, try)
		}
	}
	out := cur.Clone()
	out.Name = s.Name + "-shrunk"
	return &out, spent
}

// adversarial reports whether the scenario contains attacker machinery:
// an attack-kind workload or any MitM tap. This is the verdict class
// Shrink preserves.
func adversarial(s *scenario.Scenario) bool {
	for _, w := range s.Workloads {
		if w.Kind == scenario.KindAttack {
			return true
		}
	}
	return len(s.Taps) > 0
}

// An edit changes a clone of the current scenario in place and reports
// whether it found anything to change; a false edit is never run.
type edit func(*scenario.Scenario) bool

// A pass offers its edits, in order, to try, which runs each candidate
// and on success makes it the current scenario *cur, so the pass's later
// edits start from every edit it kept.
type pass func(cur *scenario.Scenario, try func(edit) bool)

var passes = []pass{
	dropEach(func(s *scenario.Scenario) *[]scenario.WorkloadSpec { return &s.Workloads }),
	reduceFlows,
	dropEach(func(s *scenario.Scenario) *[]scenario.FailureSpec { return &s.Failures }),
	dropEach(func(s *scenario.Scenario) *[]scenario.TapSpec { return &s.Taps }),
	dropBlink,
	dropEach(func(s *scenario.Scenario) *[]scenario.GraySpec { return &s.Gray }),
	dropEach(func(s *scenario.Scenario) *[]scenario.FlapSpec { return &s.Flaps }),
	dropEach(func(s *scenario.Scenario) *[]scenario.DegradeSpec { return &s.Degrades }),
	dropEach(func(s *scenario.Scenario) *[]scenario.CrashSpec { return &s.Crashes }),
	dropNodes,
	bypassNodes,
	roundParams,
}

// dropEach tries removing each element of one slice field, last first
// (later elements never invalidate earlier indices).
func dropEach[T any](field func(*scenario.Scenario) *[]T) pass {
	return func(cur *scenario.Scenario, try func(edit) bool) {
		for i := len(*field(cur)) - 1; i >= 0; i-- {
			try(func(c *scenario.Scenario) bool {
				f := field(c)
				*f = append((*f)[:i:i], (*f)[i+1:]...)
				return true
			})
		}
	}
}

func dropBlink(_ *scenario.Scenario, try func(edit) bool) {
	try(func(c *scenario.Scenario) bool {
		had := c.Blink != nil
		c.Blink = nil
		return had
	})
}

// reduceFlows cuts each workload's flow count, trying the floor first,
// then halvings toward it, and keeps the first cut that still fails.
func reduceFlows(cur *scenario.Scenario, try func(edit) bool) {
	for i := range cur.Workloads {
		f := cur.Workloads[i].Flows
		for _, flows := range []int{1, f / 4, f / 2} {
			if try(func(c *scenario.Scenario) bool {
				if flows <= 0 || flows >= c.Workloads[i].Flows {
					return false
				}
				c.Workloads[i].Flows = flows
				return true
			}) {
				break
			}
		}
	}
}

// dropNodes removes each unreferenced node (last first) together with its
// links and anything referencing those links.
func dropNodes(cur *scenario.Scenario, try func(edit) bool) {
	for i := len(cur.Nodes) - 1; i >= 0; i-- {
		try(func(c *scenario.Scenario) bool {
			if nodeReferenced(c, i) {
				return false
			}
			removeNode(c, i)
			return true
		})
	}
}

func nodeReferenced(s *scenario.Scenario, i int) bool {
	for _, w := range s.Workloads {
		if w.From == i || w.To == i {
			return true
		}
	}
	for _, t := range s.Taps {
		if t.InjectPPS > 0 && t.InjectTo == i {
			return true
		}
	}
	for _, cs := range s.Crashes {
		if cs.Node == i {
			return true
		}
	}
	if b := s.Blink; b != nil {
		if b.Router == i || b.Victim == i {
			return true
		}
		for _, nh := range b.NextHops {
			if nh == i {
				return true
			}
		}
	}
	return false
}

// removeNode deletes node i, every link touching it, and every spec on a
// deleted link, remapping all remaining node and link indices.
func removeNode(c *scenario.Scenario, i int) {
	c.Nodes = append(c.Nodes[:i:i], c.Nodes[i+1:]...)
	node := func(j int) int {
		if j > i {
			return j - 1
		}
		return j
	}
	linkMap := make([]int, len(c.Links))
	var links []scenario.LinkSpec
	for li, l := range c.Links {
		if l.A == i || l.B == i {
			linkMap[li] = -1
			continue
		}
		linkMap[li] = len(links)
		l.A, l.B = node(l.A), node(l.B)
		links = append(links, l)
	}
	c.Links = links
	relink(c, linkMap)
	for j := range c.Taps {
		c.Taps[j].InjectTo = node(c.Taps[j].InjectTo)
	}
	for j := range c.Crashes {
		c.Crashes[j].Node = node(c.Crashes[j].Node)
	}
	for j := range c.Workloads {
		c.Workloads[j].From = node(c.Workloads[j].From)
		c.Workloads[j].To = node(c.Workloads[j].To)
	}
	if b := c.Blink; b != nil {
		b.Router = node(b.Router)
		b.Victim = node(b.Victim)
		for j := range b.NextHops {
			b.NextHops[j] = node(b.NextHops[j])
		}
	}
}

// relink points every failure, tap, gray, flap and degrade spec at
// linkMap[its link], and drops the specs whose link maps to -1.
func relink(c *scenario.Scenario, linkMap []int) {
	c.Failures = keepLinked(c.Failures, linkMap, func(f *scenario.FailureSpec) *int { return &f.Link })
	c.Taps = keepLinked(c.Taps, linkMap, func(t *scenario.TapSpec) *int { return &t.Link })
	c.Gray = keepLinked(c.Gray, linkMap, func(g *scenario.GraySpec) *int { return &g.Link })
	c.Flaps = keepLinked(c.Flaps, linkMap, func(f *scenario.FlapSpec) *int { return &f.Link })
	c.Degrades = keepLinked(c.Degrades, linkMap, func(d *scenario.DegradeSpec) *int { return &d.Link })
}

// keepLinked is relink for one slice field; link picks the spec's link.
func keepLinked[T any](specs []T, linkMap []int, link func(*T) *int) []T {
	var out []T
	for _, s := range specs {
		if l := link(&s); linkMap[*l] >= 0 {
			*l = linkMap[*l]
			out = append(out, s)
		}
	}
	return out
}

// bypassNodes merges out degree-2 chain nodes: the node's two links become
// one with summed delay, the tighter rate, and the tighter queue cap, so a
// long forwarding path collapses without disconnecting its endpoints.
func bypassNodes(cur *scenario.Scenario, try func(edit) bool) {
	for i := len(cur.Nodes) - 1; i >= 0; i-- {
		try(func(c *scenario.Scenario) bool {
			if nodeReferenced(c, i) {
				return false
			}
			var touching []int
			for li, l := range c.Links {
				if l.A == i || l.B == i {
					touching = append(touching, li)
				}
			}
			if len(touching) != 2 {
				return false
			}
			t1, t2 := touching[0], touching[1]
			l1, l2 := c.Links[t1], c.Links[t2]
			a, b := otherEnd(l1, i), otherEnd(l2, i)
			if a == b || a == i || b == i {
				return false
			}
			c.Links[t1] = scenario.LinkSpec{
				A: a, B: b,
				Delay:    l1.Delay + l2.Delay,
				RateBps:  minNonzero(l1.RateBps, l2.RateBps),
				QueueCap: int(minNonzero(float64(l1.QueueCap), float64(l2.QueueCap))),
			}
			// Specs on the second link move to the merged one; removing
			// node i then drops the second link and renumbers the rest.
			linkMap := make([]int, len(c.Links))
			for li := range linkMap {
				linkMap[li] = li
			}
			linkMap[t2] = t1
			relink(c, linkMap)
			removeNode(c, i)
			return true
		})
	}
}

// roundParams simplifies scalars: halve the duration (scaling every
// schedule with it), push per-flow rates toward 1 pps, uncap queues, and
// drop tap drop/delay behaviors that are not load-bearing.
func roundParams(cur *scenario.Scenario, try func(edit) bool) {
	try(func(c *scenario.Scenario) bool {
		if c.Duration <= 1 {
			return false
		}
		scaleTimes(c, 0.5)
		return true
	})
	for i := range cur.Workloads {
		try(func(c *scenario.Scenario) bool {
			if c.Workloads[i].PPS <= 2 {
				return false
			}
			c.Workloads[i].PPS /= 2
			return true
		})
		try(func(c *scenario.Scenario) bool { return zero(&c.Workloads[i].MeanDur) })
	}
	for i := range cur.Links {
		try(func(c *scenario.Scenario) bool { return zero(&c.Links[i].RateBps) })
		try(func(c *scenario.Scenario) bool { return zero(&c.Links[i].QueueCap) })
	}
	for i := range cur.Taps {
		try(func(c *scenario.Scenario) bool { return zero(&c.Taps[i].DropP) })
		// DelayP 0 makes the delay deterministic (or none if Delay is 0).
		try(func(c *scenario.Scenario) bool { return zero(&c.Taps[i].DelayP) })
	}
}

// zero sets *v to its zero value and reports whether that changed it.
func zero[T comparable](v *T) bool {
	var z T
	if *v == z {
		return false
	}
	*v = z
	return true
}

// scaleTimes multiplies every schedule in the scenario by f, preserving
// validity (ordering and containment scale together).
func scaleTimes(c *scenario.Scenario, f float64) {
	c.Duration *= f
	for i := range c.Workloads {
		c.Workloads[i].Until *= f
		if c.Workloads[i].RetransmitFrom > 0 {
			c.Workloads[i].RetransmitFrom *= f
		}
	}
	for i := range c.Failures {
		c.Failures[i].DownAt *= f
		c.Failures[i].UpAt *= f
	}
	for i := range c.Taps {
		c.Taps[i].InjectUntil *= f
	}
	for i := range c.Gray {
		c.Gray[i].From *= f
		c.Gray[i].Until *= f
	}
	for i := range c.Flaps {
		c.Flaps[i].Start *= f
		c.Flaps[i].End *= f
		c.Flaps[i].MeanDown *= f
		c.Flaps[i].MeanUp *= f
		c.Flaps[i].MinDwell *= f
	}
	for i := range c.Degrades {
		c.Degrades[i].At *= f
		c.Degrades[i].Until *= f
	}
	for i := range c.Crashes {
		c.Crashes[i].At *= f
		c.Crashes[i].RestartAt *= f
	}
}

func otherEnd(l scenario.LinkSpec, i int) int {
	if l.A == i {
		return l.B
	}
	return l.A
}

func minNonzero(a, b float64) float64 {
	switch {
	case a == 0:
		return b
	case b == 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}
