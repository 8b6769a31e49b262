package fuzz

import (
	"reflect"
	"testing"

	"dui/internal/scenario"
)

// nodeEditFixture is a chain h0 - r1 - x - r3 - h4 in which router x
// (node 2) is the only node nothing references. Its links 1 and 2, and
// the unrelated link 3, each carry one failure, tap, gray, flap and
// degrade whose times equal the link's index, so a spec's time names the
// link it started on.
func nodeEditFixture() scenario.Scenario {
	s := scenario.Scenario{
		Duration: 10,
		Nodes: []scenario.NodeSpec{
			{Name: "h0"}, {Name: "r1", Router: true}, {Name: "x", Router: true},
			{Name: "r3", Router: true}, {Name: "h4"},
		},
		Links: []scenario.LinkSpec{
			{A: 0, B: 1, Delay: 0.001},
			{A: 1, B: 2, Delay: 0.002, RateBps: 5e6},
			{A: 2, B: 3, Delay: 0.003, RateBps: 2e6, QueueCap: 30},
			{A: 3, B: 4, Delay: 0.004},
		},
		Workloads: []scenario.WorkloadSpec{{Kind: scenario.KindLegit, From: 0, To: 4, Flows: 2, PPS: 10, Until: 5}},
		Crashes:   []scenario.CrashSpec{{Node: 1, At: 1}, {Node: 3, At: 2}},
		Blink:     &scenario.BlinkSpec{Router: 3, Victim: 4, NextHops: []int{4}},
	}
	for l := 1; l <= 3; l++ {
		t := float64(l)
		s.Failures = append(s.Failures, scenario.FailureSpec{Link: l, DownAt: t})
		s.Taps = append(s.Taps, scenario.TapSpec{Link: l, InjectPPS: 1, InjectUntil: t, InjectTo: 4})
		s.Gray = append(s.Gray, scenario.GraySpec{Link: l, LossP: 0.1, From: t})
		s.Flaps = append(s.Flaps, scenario.FlapSpec{Link: l, Start: t, End: t + 0.5, MeanDown: 0.1, MeanUp: 0.1})
		s.Degrades = append(s.Degrades, scenario.DegradeSpec{Link: l, At: t, Factor: 0.5})
	}
	return s
}

// specLinks maps each spec kind to the link every spec now names, keyed
// by the link it started on.
func specLinks(s *scenario.Scenario) map[string]map[int]int {
	out := map[string]map[int]int{"failure": {}, "tap": {}, "gray": {}, "flap": {}, "degrade": {}}
	for _, f := range s.Failures {
		out["failure"][int(f.DownAt)] = f.Link
	}
	for _, t := range s.Taps {
		out["tap"][int(t.InjectUntil)] = t.Link
	}
	for _, g := range s.Gray {
		out["gray"][int(g.From)] = g.Link
	}
	for _, f := range s.Flaps {
		out["flap"][int(f.Start)] = f.Link
	}
	for _, d := range s.Degrades {
		out["degrade"][int(d.At)] = d.Link
	}
	return out
}

// applyAll runs pass p with a try that keeps every edit that has a
// candidate, without running any scenario, and returns the edits kept.
func applyAll(s *scenario.Scenario, p pass) int {
	kept := 0
	p(s, func(e edit) bool {
		c := s.Clone()
		if !e(&c) {
			return false
		}
		*s, kept = c, kept+1
		return true
	})
	return kept
}

// checkShifted asserts that every node index above the removed node 2
// moved down by one, and that the result is a valid scenario.
func checkShifted(t *testing.T, s *scenario.Scenario) {
	t.Helper()
	if w := s.Workloads[0]; w.From != 0 || w.To != 3 {
		t.Errorf("workload from/to = %d/%d, want 0/3", w.From, w.To)
	}
	for i, tap := range s.Taps {
		if tap.InjectTo != 3 {
			t.Errorf("tap %d inject_to = %d, want 3", i, tap.InjectTo)
		}
	}
	if got := []int{s.Crashes[0].Node, s.Crashes[1].Node}; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("crash nodes = %v, want [1 2]", got)
	}
	if b := s.Blink; b.Router != 2 || b.Victim != 3 || !reflect.DeepEqual(b.NextHops, []int{3}) {
		t.Errorf("blink = %+v, want router 2, victim 3, next hops [3]", *b)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("edited scenario invalid: %v", err)
	}
}

func TestBypassNodesMergesLinks(t *testing.T) {
	s := nodeEditFixture()
	if kept := applyAll(&s, bypassNodes); kept != 1 {
		t.Fatalf("bypassNodes kept %d edits, want 1 (only x is an unreferenced degree-2 node)", kept)
	}
	want := []scenario.LinkSpec{
		{A: 0, B: 1, Delay: 0.001},
		{A: 1, B: 2, Delay: 0.002 + 0.003, RateBps: 2e6, QueueCap: 30},
		{A: 2, B: 3, Delay: 0.004},
	}
	if !reflect.DeepEqual(s.Links, want) {
		t.Errorf("links = %+v, want %+v", s.Links, want)
	}
	// Specs on either of x's links name the merged link 1; the unrelated
	// link 3 is now link 2.
	onLinks := map[int]int{1: 1, 2: 1, 3: 2}
	for kind, got := range specLinks(&s) {
		if !reflect.DeepEqual(got, onLinks) {
			t.Errorf("%s links (by original link) = %v, want %v", kind, got, onLinks)
		}
	}
	checkShifted(t, &s)
}

func TestDropNodesRemovesLinksAndSpecs(t *testing.T) {
	s := nodeEditFixture()
	if kept := applyAll(&s, dropNodes); kept != 1 {
		t.Fatalf("dropNodes kept %d edits, want 1 (only x is unreferenced)", kept)
	}
	want := []scenario.LinkSpec{{A: 0, B: 1, Delay: 0.001}, {A: 2, B: 3, Delay: 0.004}}
	if !reflect.DeepEqual(s.Links, want) {
		t.Errorf("links = %+v, want %+v", s.Links, want)
	}
	// Specs on x's links go with them; those on link 3 follow it to 1.
	onLinks := map[int]int{3: 1}
	for kind, got := range specLinks(&s) {
		if !reflect.DeepEqual(got, onLinks) {
			t.Errorf("%s links (by original link) = %v, want %v", kind, got, onLinks)
		}
	}
	checkShifted(t, &s)
}
