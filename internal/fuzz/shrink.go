package fuzz

import (
	"dui/internal/scenario"
)

// DefaultShrinkBudget bounds how many candidate runs one shrink spends
// when its caller gives no budget.
const DefaultShrinkBudget = 400

// Shrink greedily minimizes s while the given oracle rule keeps firing,
// and returns the smallest reproducer found plus the number of candidate
// runs spent. The passes run coarse to fine — drop whole workloads, cut
// flow counts, drop failures/taps/Blink, remove and bypass nodes, then
// round parameters — and repeat until a full sweep accepts nothing or the
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
	check := func(c *scenario.Scenario) bool {
		// Structural rejections spend no budget, like Validate failures:
		// a candidate that left the original's verdict class is not worth
		// a run.
		if spent >= budget || c.Validate() != nil || (wantAdv && !adversarial(c)) {
			return false
		}
		spent++
		var rep scenario.Report
		if rule == scenario.RuleDeterminism {
			rep = scenario.RunChecked(c, scenario.Options{})
		} else {
			rep = scenario.Run(c, scenario.Options{})
		}
		return rep.HasRule(rule)
	}

	cur := s.Clone()
	for improved := true; improved && spent < budget; {
		improved = false
		for _, pass := range []func(*scenario.Scenario, func(*scenario.Scenario) bool) *scenario.Scenario{
			dropWorkloads, reduceFlows, dropFailures, dropTaps, dropBlink,
			dropGray, dropFlaps, dropDegrades, dropCrashes,
			dropNodes, bypassNodes, roundParams,
		} {
			if next := pass(&cur, check); next != nil {
				cur = *next
				improved = true
			}
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

// Each pass tries its candidates against check and returns the last
// accepted scenario (nil if nothing was accepted). Within a pass,
// accepted candidates become the new baseline immediately, so one sweep
// can drop several elements.

func dropWorkloads(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	return dropEach(s, check, func(c *scenario.Scenario) int { return len(c.Workloads) },
		func(c *scenario.Scenario, i int) {
			c.Workloads = append(c.Workloads[:i:i], c.Workloads[i+1:]...)
		})
}

func dropFailures(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	return dropEach(s, check, func(c *scenario.Scenario) int { return len(c.Failures) },
		func(c *scenario.Scenario, i int) {
			c.Failures = append(c.Failures[:i:i], c.Failures[i+1:]...)
		})
}

func dropTaps(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	return dropEach(s, check, func(c *scenario.Scenario) int { return len(c.Taps) },
		func(c *scenario.Scenario, i int) {
			c.Taps = append(c.Taps[:i:i], c.Taps[i+1:]...)
		})
}

func dropGray(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	return dropEach(s, check, func(c *scenario.Scenario) int { return len(c.Gray) },
		func(c *scenario.Scenario, i int) {
			c.Gray = append(c.Gray[:i:i], c.Gray[i+1:]...)
		})
}

func dropFlaps(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	return dropEach(s, check, func(c *scenario.Scenario) int { return len(c.Flaps) },
		func(c *scenario.Scenario, i int) {
			c.Flaps = append(c.Flaps[:i:i], c.Flaps[i+1:]...)
		})
}

func dropDegrades(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	return dropEach(s, check, func(c *scenario.Scenario) int { return len(c.Degrades) },
		func(c *scenario.Scenario, i int) {
			c.Degrades = append(c.Degrades[:i:i], c.Degrades[i+1:]...)
		})
}

func dropCrashes(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	return dropEach(s, check, func(c *scenario.Scenario) int { return len(c.Crashes) },
		func(c *scenario.Scenario, i int) {
			c.Crashes = append(c.Crashes[:i:i], c.Crashes[i+1:]...)
		})
}

// dropEach tries removing each element of one slice, last first (later
// elements never invalidate earlier indices).
func dropEach(s *scenario.Scenario, check func(*scenario.Scenario) bool,
	length func(*scenario.Scenario) int, remove func(*scenario.Scenario, int)) *scenario.Scenario {
	var accepted *scenario.Scenario
	cur := s
	for i := length(cur) - 1; i >= 0; i-- {
		c := cur.Clone()
		remove(&c, i)
		if check(&c) {
			accepted = &c
			cur = accepted
		}
	}
	return accepted
}

func dropBlink(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	if s.Blink == nil {
		return nil
	}
	c := s.Clone()
	c.Blink = nil
	if check(&c) {
		return &c
	}
	return nil
}

func reduceFlows(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	var accepted *scenario.Scenario
	cur := s
	for i := range cur.Workloads {
		// Try the floor first, then halvings toward it.
		for _, flows := range []int{1, cur.Workloads[i].Flows / 4, cur.Workloads[i].Flows / 2} {
			if flows <= 0 || flows >= cur.Workloads[i].Flows {
				continue
			}
			c := cur.Clone()
			c.Workloads[i].Flows = flows
			if check(&c) {
				accepted = &c
				cur = accepted
				break
			}
		}
	}
	return accepted
}

// dropNodes removes each unreferenced node (last first) together with its
// links and anything referencing those links.
func dropNodes(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	var accepted *scenario.Scenario
	cur := s
	for i := len(cur.Nodes) - 1; i >= 0; i-- {
		if nodeReferenced(cur, i) {
			continue
		}
		if c := removeNode(cur, i); check(c) {
			accepted = c
			cur = accepted
		}
	}
	return accepted
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

// removeNode deletes node i, every link touching it, and every failure or
// tap on a deleted link, remapping all remaining indices.
func removeNode(s *scenario.Scenario, i int) *scenario.Scenario {
	c := s.Clone()
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
		links = append(links, scenario.LinkSpec{A: node(l.A), B: node(l.B), RateBps: l.RateBps, Delay: l.Delay, QueueCap: l.QueueCap})
	}
	c.Links = links
	remapLinkRefs(&c, linkMap, node)
	return &c
}

// bypassNodes merges out degree-2 chain nodes: the node's two links become
// one with summed delay, the tighter rate, and the tighter queue cap, so a
// long forwarding path collapses without disconnecting its endpoints.
func bypassNodes(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	var accepted *scenario.Scenario
	cur := s
	for i := len(cur.Nodes) - 1; i >= 0; i-- {
		if nodeReferenced(cur, i) {
			continue
		}
		var touching []int
		for li, l := range cur.Links {
			if l.A == i || l.B == i {
				touching = append(touching, li)
			}
		}
		if len(touching) != 2 {
			continue
		}
		l1, l2 := cur.Links[touching[0]], cur.Links[touching[1]]
		a, b := otherEnd(l1, i), otherEnd(l2, i)
		if a == b || a == i || b == i {
			continue
		}
		c := cur.Clone()
		merged := scenario.LinkSpec{
			A: a, B: b,
			Delay:    l1.Delay + l2.Delay,
			RateBps:  minNonzero(l1.RateBps, l2.RateBps),
			QueueCap: int(minNonzero(float64(l1.QueueCap), float64(l2.QueueCap))),
		}
		c.Links[touching[0]] = merged
		// Drop the second link; refs to it move to the merged one.
		linkMap := make([]int, len(c.Links))
		var links []scenario.LinkSpec
		for li, l := range c.Links {
			if li == touching[1] {
				linkMap[li] = touching[0] - boolInt(touching[0] > touching[1])
				continue
			}
			linkMap[li] = len(links)
			links = append(links, l)
		}
		c.Links = links
		// Now remove node i itself (it has no links left to drop).
		c.Nodes = append(c.Nodes[:i:i], c.Nodes[i+1:]...)
		node := func(j int) int {
			if j > i {
				return j - 1
			}
			return j
		}
		for li := range c.Links {
			c.Links[li].A = node(c.Links[li].A)
			c.Links[li].B = node(c.Links[li].B)
		}
		remapLinkRefs(&c, linkMap, node)
		if check(&c) {
			accepted = &c
			cur = accepted
		}
	}
	return accepted
}

// roundParams simplifies scalars: halve the duration (scaling every
// schedule with it), push per-flow rates toward 1 pps, uncap queues, and
// drop tap drop/delay behaviors that are not load-bearing.
func roundParams(s *scenario.Scenario, check func(*scenario.Scenario) bool) *scenario.Scenario {
	var accepted *scenario.Scenario
	cur := s
	try := func(mutate func(*scenario.Scenario) bool) {
		c := cur.Clone()
		if !mutate(&c) {
			return
		}
		if check(&c) {
			accepted = &c
			cur = accepted
		}
	}
	try(func(c *scenario.Scenario) bool {
		if c.Duration <= 1 {
			return false
		}
		scaleTimes(c, 0.5)
		return true
	})
	for i := range cur.Workloads {
		i := i
		try(func(c *scenario.Scenario) bool {
			if c.Workloads[i].PPS <= 2 {
				return false
			}
			c.Workloads[i].PPS /= 2
			return true
		})
		try(func(c *scenario.Scenario) bool {
			if c.Workloads[i].MeanDur == 0 {
				return false
			}
			c.Workloads[i].MeanDur = 0
			return true
		})
	}
	for i := range cur.Links {
		i := i
		try(func(c *scenario.Scenario) bool {
			if c.Links[i].RateBps == 0 {
				return false
			}
			c.Links[i].RateBps = 0
			return true
		})
		try(func(c *scenario.Scenario) bool {
			if c.Links[i].QueueCap == 0 {
				return false
			}
			c.Links[i].QueueCap = 0
			return true
		})
	}
	for i := range cur.Taps {
		i := i
		try(func(c *scenario.Scenario) bool {
			if c.Taps[i].DropP == 0 {
				return false
			}
			c.Taps[i].DropP = 0
			return true
		})
		try(func(c *scenario.Scenario) bool {
			if c.Taps[i].DelayP == 0 {
				return false
			}
			c.Taps[i].DelayP = 0 // deterministic delay (or none if Delay is 0)
			return true
		})
	}
	return accepted
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

// remapLinkRefs rewrites failure/tap link indices through linkMap (refs
// mapped to -1 are dropped), and workload/Blink node indices through node.
func remapLinkRefs(c *scenario.Scenario, linkMap []int, node func(int) int) {
	var fails []scenario.FailureSpec
	for _, f := range c.Failures {
		if linkMap[f.Link] < 0 {
			continue
		}
		f.Link = linkMap[f.Link]
		fails = append(fails, f)
	}
	c.Failures = fails
	var taps []scenario.TapSpec
	for _, t := range c.Taps {
		if linkMap[t.Link] < 0 {
			continue
		}
		t.Link = linkMap[t.Link]
		t.InjectTo = node(t.InjectTo)
		taps = append(taps, t)
	}
	c.Taps = taps
	var gray []scenario.GraySpec
	for _, g := range c.Gray {
		if linkMap[g.Link] < 0 {
			continue
		}
		g.Link = linkMap[g.Link]
		gray = append(gray, g)
	}
	c.Gray = gray
	var flaps []scenario.FlapSpec
	for _, fl := range c.Flaps {
		if linkMap[fl.Link] < 0 {
			continue
		}
		fl.Link = linkMap[fl.Link]
		flaps = append(flaps, fl)
	}
	c.Flaps = flaps
	var degs []scenario.DegradeSpec
	for _, d := range c.Degrades {
		if linkMap[d.Link] < 0 {
			continue
		}
		d.Link = linkMap[d.Link]
		degs = append(degs, d)
	}
	c.Degrades = degs
	for i := range c.Crashes {
		c.Crashes[i].Node = node(c.Crashes[i].Node)
	}
	for i := range c.Workloads {
		c.Workloads[i].From = node(c.Workloads[i].From)
		c.Workloads[i].To = node(c.Workloads[i].To)
	}
	if b := c.Blink; b != nil {
		b.Router = node(b.Router)
		b.Victim = node(b.Victim)
		for i := range b.NextHops {
			b.NextHops[i] = node(b.NextHops[i])
		}
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

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
