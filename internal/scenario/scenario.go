// Package scenario defines a declarative, JSON-serializable description of
// one complete simulation — topology, link characteristics, workloads,
// scheduled failures, MitM taps, and an optional Blink deployment — plus
// the machinery to build it on internal/netsim and run it under the full
// internal/audit oracle stack.
//
// A Scenario is the unit of currency of the fuzzing subsystem: the
// generator (internal/fuzz) draws random scenarios, the runner executes
// them through Run/RunChecked, the shrinker edits the value until it is a
// minimal reproducer, and the corpus under testdata/corpus/ persists the
// survivors as regression tests. Everything observable about a run is a
// pure function of the Scenario value, which is what makes shrinking and
// replay meaningful.
package scenario

import (
	"fmt"

	"dui/internal/packet"
)

// Scenario is one self-contained simulation description. Node, link,
// workload, and tap references are dense indices into the respective
// slices, so the value survives JSON round-trips and index-based shrinking.
type Scenario struct {
	// Name labels the scenario in reports and corpus entries.
	Name string `json:"name,omitempty"`
	// Seed drives every random choice made while running the scenario
	// (workload arrivals, tap coin flips). Two runs with equal Scenario
	// values are bit-identical.
	Seed uint64 `json:"seed"`
	// Duration is when workloads end; the run then drains in-flight
	// traffic and tears down.
	Duration  float64        `json:"duration"`
	Nodes     []NodeSpec     `json:"nodes"`
	Links     []LinkSpec     `json:"links"`
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	Failures  []FailureSpec  `json:"failures,omitempty"`
	Taps      []TapSpec      `json:"taps,omitempty"`
	Blink     *BlinkSpec     `json:"blink,omitempty"`

	// The benign-fault plane (internal/faults): gray failure, flapping,
	// bandwidth degradation, and router crash/restart. All empty by
	// default — a scenario without fault specs builds and runs exactly as
	// before the fault plane existed.
	Gray     []GraySpec    `json:"gray,omitempty"`
	Flaps    []FlapSpec    `json:"flaps,omitempty"`
	Degrades []DegradeSpec `json:"degrades,omitempty"`
	Crashes  []CrashSpec   `json:"crashes,omitempty"`
}

// NodeSpec is one node. Hosts get the deterministic address 10.<index>.0.1
// and announce 10.<index>.0.0/24 (the prefix workload destinations are
// drawn from); router loopbacks are auto-assigned by netsim.
type NodeSpec struct {
	Name   string `json:"name"`
	Router bool   `json:"router,omitempty"`
}

// LinkSpec is one full-duplex link between node indices A and B.
type LinkSpec struct {
	A int `json:"a"`
	B int `json:"b"`
	// RateBps is the transmission rate (0 = infinite).
	RateBps float64 `json:"rate_bps,omitempty"`
	// Delay is one-way propagation in seconds; it must be positive so
	// virtual time strictly advances along every path.
	Delay float64 `json:"delay"`
	// QueueCap is the drop-tail queue limit in packets (0 = unbounded).
	QueueCap int `json:"queue_cap,omitempty"`
}

// Workload kinds.
const (
	KindLegit  = "legit"  // trace.NewLegit: renewing population, exponential arrivals
	KindAttack = "attack" // trace.NewMalicious: always-active spoofed flows, optional storm
)

// WorkloadSpec is one packet workload entering at host From, destined to
// host To's /24 prefix. Legit workloads use the heavy-tailed renewal
// population of internal/trace; attack workloads use the §3.1 always-active
// spoofed pool with an optional fake-retransmission storm.
type WorkloadSpec struct {
	Kind string `json:"kind"`
	// From and To are host node indices (traffic enters the network at
	// From; destinations are drawn from To's prefix).
	From int `json:"from"`
	To   int `json:"to"`
	// Flows is the concurrent flow population.
	Flows int `json:"flows"`
	// PPS is the per-flow packet rate.
	PPS float64 `json:"pps"`
	// Until stops the workload (must be <= Duration).
	Until float64 `json:"until"`
	// MeanDur is the mean exponential flow duration for legit workloads
	// (0 = flows outlive the workload).
	MeanDur float64 `json:"mean_dur,omitempty"`
	// RetransmitFrom is when an attack workload switches to the fake
	// retransmission storm; negative means never.
	RetransmitFrom float64 `json:"retransmit_from,omitempty"`
	// MimicRTO paces the storm like genuine RTO backoff (the adaptive
	// attacker).
	MimicRTO bool `json:"mimic_rto,omitempty"`
}

// FailureSpec schedules a link failure (and optional repair): the link goes
// down at DownAt; UpAt > DownAt brings it back, 0 leaves it down.
type FailureSpec struct {
	Link   int     `json:"link"`
	DownAt float64 `json:"down_at"`
	UpAt   float64 `json:"up_at,omitempty"`
}

// TapSpec places a MitM tap on one direction of a link: probabilistic
// drops, (optionally probabilistic) added delay, and periodic injection of
// spoofed TCP packets toward host InjectTo through the tap's Injector.
type TapSpec struct {
	Link int `json:"link"`
	// Dir is the direction the tap acts on (0 = AToB, 1 = BToA); packets
	// in the other direction pass untouched.
	Dir int `json:"dir,omitempty"`
	// DropP is the per-packet drop probability.
	DropP float64 `json:"drop_p,omitempty"`
	// Delay is the extra per-packet delay; DelayP is the probability it
	// applies (0 = always, when Delay > 0).
	Delay  float64 `json:"delay,omitempty"`
	DelayP float64 `json:"delay_p,omitempty"`
	// InjectPPS > 0 injects spoofed packets at this rate until
	// InjectUntil (0 = Duration), destined to host index InjectTo.
	InjectPPS   float64 `json:"inject_pps,omitempty"`
	InjectUntil float64 `json:"inject_until,omitempty"`
	InjectTo    int     `json:"inject_to,omitempty"`
}

// GraySpec applies a seed-deterministic gray-failure process (faults.Gray)
// to one direction of a link: per-packet loss, corruption, duplication,
// and latency jitter. The process's RNG stream is stats.ChildAt(seed,
// 3000+i) for the i-th spec.
type GraySpec struct {
	Link int `json:"link"`
	// Dir is the direction acted on (0 = AToB, 1 = BToA).
	Dir int `json:"dir,omitempty"`
	// Per-packet probabilities, each in [0, 1].
	LossP    float64 `json:"loss_p,omitempty"`
	CorruptP float64 `json:"corrupt_p,omitempty"`
	DupP     float64 `json:"dup_p,omitempty"`
	// Jitter is the max extra per-packet delay (uniform in [0, Jitter));
	// JitterP is the probability it applies (0 = always, when Jitter > 0).
	JitterP float64 `json:"jitter_p,omitempty"`
	Jitter  float64 `json:"jitter,omitempty"`
	// From/Until bound the active window; Until 0 means Duration, so the
	// post-Duration drain always runs fault-free and the drain bound
	// stays sound (duplication cannot amplify the in-flight population
	// forever).
	From  float64 `json:"from,omitempty"`
	Until float64 `json:"until,omitempty"`
}

// FlapSpec schedules link flapping (faults.ScheduleFlap): alternating
// exponential down/up dwells from Start to End, floored at MinDwell, with
// the link forced up at End. The dwell RNG stream is stats.ChildAt(seed,
// 4000+i) for the i-th spec.
type FlapSpec struct {
	Link     int     `json:"link"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	MeanDown float64 `json:"mean_down"`
	MeanUp   float64 `json:"mean_up"`
	MinDwell float64 `json:"min_dwell,omitempty"`
}

// DegradeSpec schedules a bandwidth degradation (faults.ScheduleDegrade):
// the link's rate is multiplied by Factor at At and restored at Until
// (0 = never restored).
type DegradeSpec struct {
	Link   int     `json:"link"`
	At     float64 `json:"at"`
	Until  float64 `json:"until,omitempty"`
	Factor float64 `json:"factor"`
}

// CrashSpec schedules a router crash/restart (faults.ScheduleCrash): every
// up link attached to Node fails at At; RestartAt restores them (0 = the
// device never returns). If Node hosts the scenario's Blink deployment,
// the pipeline loses its monitor state at restart and replays its warm-up.
type CrashSpec struct {
	Node      int     `json:"node"`
	At        float64 `json:"at"`
	RestartAt float64 `json:"restart_at,omitempty"`
}

// BlinkSpec deploys a Blink pipeline on a router, monitoring the prefix of
// host Victim with the given next-hop preference list.
type BlinkSpec struct {
	Router int `json:"router"`
	Victim int `json:"victim"`
	// NextHops are node indices in preference order; each must share a
	// link with Router.
	NextHops []int `json:"next_hops"`
	// Cells overrides the selector's cell count (0 = default); the
	// threshold and retransmission window keep their defaults.
	Cells int `json:"cells,omitempty"`
}

// MaxHosts is the most nodes a scenario may have: node i is addressed
// from 10.i.0.0, so the index must fit in one octet.
const MaxHosts = 255

// HostAddr returns the deterministic address of the host at node index i.
func HostAddr(i int) packet.Addr { return packet.MakeAddr(10, byte(i), 0, 1) }

// HostPrefix returns the /24 announced by the host at node index i, the
// prefix its inbound workloads draw destinations from.
func HostPrefix(i int) packet.Prefix {
	return packet.Prefix{Addr: packet.MakeAddr(10, byte(i), 0, 0), Bits: 24}
}

// LegitSrcBase and AttackSrcBase partition workload source addresses:
// workload w draws sources from 20.w.0.0 (legit) or 30.w.0.0 (attack —
// inside blink.IsMaliciousSrc's range). Tap injections use 40.t.0.0.
func LegitSrcBase(w int) packet.Addr  { return packet.MakeAddr(20, byte(w), 0, 0) }
func AttackSrcBase(w int) packet.Addr { return packet.MakeAddr(30, byte(w), 0, 0) }

func (s *Scenario) host(i int) bool {
	return i >= 0 && i < len(s.Nodes) && !s.Nodes[i].Router
}

// Validate checks the scenario's internal consistency: every index in
// range, every parameter in its legal domain. Build panics on invalid
// scenarios; the shrinker uses Validate to discard illegal candidates
// before running them.
func (s *Scenario) Validate() error {
	if !(s.Duration > 0) {
		return fmt.Errorf("duration %g must be positive", s.Duration)
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("no nodes")
	}
	if len(s.Nodes) > MaxHosts {
		return fmt.Errorf("%d nodes exceed the %d-host address plan", len(s.Nodes), MaxHosts)
	}
	for i, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("node %d: empty name", i)
		}
	}
	for i, l := range s.Links {
		if l.A < 0 || l.A >= len(s.Nodes) || l.B < 0 || l.B >= len(s.Nodes) || l.A == l.B {
			return fmt.Errorf("link %d: bad endpoints (%d,%d)", i, l.A, l.B)
		}
		if !(l.Delay > 0) {
			return fmt.Errorf("link %d: delay %g must be positive", i, l.Delay)
		}
		if l.RateBps < 0 || l.QueueCap < 0 {
			return fmt.Errorf("link %d: negative rate or queue cap", i)
		}
	}
	if len(s.Workloads) > 255 {
		return fmt.Errorf("%d workloads exceed the source address plan", len(s.Workloads))
	}
	for i, w := range s.Workloads {
		if w.Kind != KindLegit && w.Kind != KindAttack {
			return fmt.Errorf("workload %d: unknown kind %q", i, w.Kind)
		}
		if !s.host(w.From) || !s.host(w.To) || w.From == w.To {
			return fmt.Errorf("workload %d: from/to (%d,%d) must be distinct hosts", i, w.From, w.To)
		}
		if w.Flows <= 0 || w.Flows > 4096 {
			return fmt.Errorf("workload %d: flows %d out of range", i, w.Flows)
		}
		if !(w.PPS > 0) {
			return fmt.Errorf("workload %d: pps %g must be positive", i, w.PPS)
		}
		if !(w.Until > 0) || w.Until > s.Duration {
			return fmt.Errorf("workload %d: until %g outside (0, duration]", i, w.Until)
		}
		if w.MeanDur < 0 {
			return fmt.Errorf("workload %d: negative mean duration", i)
		}
	}
	for i, f := range s.Failures {
		if f.Link < 0 || f.Link >= len(s.Links) {
			return fmt.Errorf("failure %d: bad link %d", i, f.Link)
		}
		if !(f.DownAt > 0) || f.DownAt > s.Duration {
			return fmt.Errorf("failure %d: down_at %g outside (0, duration]", i, f.DownAt)
		}
		if f.UpAt != 0 && (f.UpAt <= f.DownAt || f.UpAt > s.Duration) {
			return fmt.Errorf("failure %d: up_at %g outside (down_at, duration]", i, f.UpAt)
		}
	}
	for i, t := range s.Taps {
		if t.Link < 0 || t.Link >= len(s.Links) {
			return fmt.Errorf("tap %d: bad link %d", i, t.Link)
		}
		if t.Dir != 0 && t.Dir != 1 {
			return fmt.Errorf("tap %d: dir %d must be 0 or 1", i, t.Dir)
		}
		if t.DropP < 0 || t.DropP > 1 || t.DelayP < 0 || t.DelayP > 1 {
			return fmt.Errorf("tap %d: probability out of [0,1]", i)
		}
		if t.Delay < 0 || t.InjectPPS < 0 {
			return fmt.Errorf("tap %d: negative delay or inject rate", i)
		}
		if t.InjectPPS > 0 {
			if !s.host(t.InjectTo) {
				return fmt.Errorf("tap %d: inject_to %d must be a host", i, t.InjectTo)
			}
			if t.InjectUntil < 0 || t.InjectUntil > s.Duration {
				return fmt.Errorf("tap %d: inject_until %g outside [0, duration]", i, t.InjectUntil)
			}
		}
	}
	for i, g := range s.Gray {
		if g.Link < 0 || g.Link >= len(s.Links) {
			return fmt.Errorf("gray %d: bad link %d", i, g.Link)
		}
		if g.Dir != 0 && g.Dir != 1 {
			return fmt.Errorf("gray %d: dir %d must be 0 or 1", i, g.Dir)
		}
		for _, p := range []float64{g.LossP, g.CorruptP, g.DupP, g.JitterP} {
			if p < 0 || p > 1 {
				return fmt.Errorf("gray %d: probability out of [0,1]", i)
			}
		}
		if g.Jitter < 0 {
			return fmt.Errorf("gray %d: negative jitter", i)
		}
		if g.From < 0 || g.From >= s.Duration {
			return fmt.Errorf("gray %d: from %g outside [0, duration)", i, g.From)
		}
		if g.Until != 0 && (g.Until <= g.From || g.Until > s.Duration) {
			return fmt.Errorf("gray %d: until %g outside (from, duration]", i, g.Until)
		}
	}
	for i, f := range s.Flaps {
		if f.Link < 0 || f.Link >= len(s.Links) {
			return fmt.Errorf("flap %d: bad link %d", i, f.Link)
		}
		if !(f.Start > 0) || f.End <= f.Start || f.End > s.Duration {
			return fmt.Errorf("flap %d: window (%g, %g) outside (0, duration]", i, f.Start, f.End)
		}
		if !(f.MeanDown > 0) || !(f.MeanUp > 0) || f.MinDwell < 0 {
			return fmt.Errorf("flap %d: dwell parameters out of range", i)
		}
	}
	for i, d := range s.Degrades {
		if d.Link < 0 || d.Link >= len(s.Links) {
			return fmt.Errorf("degrade %d: bad link %d", i, d.Link)
		}
		if !(d.At > 0) || d.At > s.Duration {
			return fmt.Errorf("degrade %d: at %g outside (0, duration]", i, d.At)
		}
		if d.Until != 0 && (d.Until <= d.At || d.Until > s.Duration) {
			return fmt.Errorf("degrade %d: until %g outside (at, duration]", i, d.Until)
		}
		if !(d.Factor > 0) || d.Factor > 1 {
			return fmt.Errorf("degrade %d: factor %g outside (0, 1]", i, d.Factor)
		}
	}
	for i, c := range s.Crashes {
		if c.Node < 0 || c.Node >= len(s.Nodes) || !s.Nodes[c.Node].Router {
			return fmt.Errorf("crash %d: node %d is not a router", i, c.Node)
		}
		if !(c.At > 0) || c.At > s.Duration {
			return fmt.Errorf("crash %d: at %g outside (0, duration]", i, c.At)
		}
		if c.RestartAt != 0 && (c.RestartAt <= c.At || c.RestartAt > s.Duration) {
			return fmt.Errorf("crash %d: restart_at %g outside (at, duration]", i, c.RestartAt)
		}
	}
	if b := s.Blink; b != nil {
		if b.Router < 0 || b.Router >= len(s.Nodes) || !s.Nodes[b.Router].Router {
			return fmt.Errorf("blink: node %d is not a router", b.Router)
		}
		if !s.host(b.Victim) {
			return fmt.Errorf("blink: victim %d must be a host", b.Victim)
		}
		if len(b.NextHops) == 0 {
			return fmt.Errorf("blink: no next hops")
		}
		for _, nh := range b.NextHops {
			if nh < 0 || nh >= len(s.Nodes) || nh == b.Router {
				return fmt.Errorf("blink: bad next hop %d", nh)
			}
			if !s.linked(b.Router, nh) {
				return fmt.Errorf("blink: next hop %d shares no link with router %d", nh, b.Router)
			}
		}
		if b.Cells < 0 || b.Cells > 4096 {
			return fmt.Errorf("blink: cells %d out of range", b.Cells)
		}
	}
	return nil
}

func (s *Scenario) linked(a, b int) bool {
	for _, l := range s.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return true
		}
	}
	return false
}

// Clone returns a deep copy (the shrinker edits copies, never the
// original).
func (s Scenario) Clone() Scenario {
	c := s
	c.Nodes = append([]NodeSpec(nil), s.Nodes...)
	c.Links = append([]LinkSpec(nil), s.Links...)
	c.Workloads = append([]WorkloadSpec(nil), s.Workloads...)
	c.Failures = append([]FailureSpec(nil), s.Failures...)
	c.Taps = append([]TapSpec(nil), s.Taps...)
	c.Gray = append([]GraySpec(nil), s.Gray...)
	c.Flaps = append([]FlapSpec(nil), s.Flaps...)
	c.Degrades = append([]DegradeSpec(nil), s.Degrades...)
	c.Crashes = append([]CrashSpec(nil), s.Crashes...)
	if s.Blink != nil {
		b := *s.Blink
		b.NextHops = append([]int(nil), s.Blink.NextHops...)
		c.Blink = &b
	}
	return c
}

// HasFaults reports whether any fault-plane spec is present; with none the
// scenario builds and runs exactly as it did before the fault plane
// existed.
func (s *Scenario) HasFaults() bool {
	return len(s.Gray) > 0 || len(s.Flaps) > 0 || len(s.Degrades) > 0 || len(s.Crashes) > 0
}

// Size summarizes the scenario for shrink progress and reproducer reports.
func (s Scenario) Size() string {
	flows := 0
	for _, w := range s.Workloads {
		flows += w.Flows
	}
	out := fmt.Sprintf("%d nodes, %d links, %d workloads (%d flows), %d failures, %d taps",
		len(s.Nodes), len(s.Links), len(s.Workloads), flows, len(s.Failures), len(s.Taps))
	if s.HasFaults() {
		out += fmt.Sprintf(", %d gray, %d flaps, %d degrades, %d crashes",
			len(s.Gray), len(s.Flaps), len(s.Degrades), len(s.Crashes))
	}
	return out
}
