package audit

import (
	"strconv"

	"dui/internal/netsim"
	"dui/internal/packet"
)

// NetAudit is the continuous invariant checker and event tracer for one
// netsim.Network. It observes every link event through the network's link
// probe, maintains shadow per-direction counters rebuilt purely from the
// event stream, and checks after each event that the link's own LinkStats
// satisfy the documented conservation identities:
//
//	Offered + Injected + Duplicated == TapDrop + FaultDrop + held + Sent
//	Sent == Delivered + QueueDrop + DownDrop + queued + onWire
//	0 <= queued <= QueueCap (when capped)
//	queued == 0 while the link is down (failures flush the queue)
//
// At Check/CheckDrained time it additionally cross-checks shadow == stats,
// which catches counters incremented at the wrong layer even when the
// identities still balance. Violations are collected, not panicked on; Err
// returns them.
type NetAudit struct {
	nw  *netsim.Network
	rec *Recorder
	v   violations

	// shadow is indexed by link direction, Link.Index()*2+dir — the same
	// location the trace records — and grows as links first report.
	shadow []shadowCounts
}

type shadowCounts struct {
	seen                                                    bool // any event observed
	sent, delivered, queuedrop, downdrop, tapdrop, faildrop uint64
	faultdrop, duplicated                                   uint64
}

// DefaultEventBudget is the engine event budget AttachNetwork installs
// when none is set: generous enough that no legitimate audited run comes
// near it, small enough that a zero-delay self-scheduling loop dies with a
// diagnosable *netsim.LivelockError in seconds rather than hanging.
const DefaultEventBudget = 1 << 30

// AttachNetwork installs the auditor on nw: the engine's causality check
// turns on, every link event is checked (and recorded, when rec is
// non-nil), and — if the engine has no event budget yet — the livelock
// watchdog is armed at DefaultEventBudget. Attach before the simulation
// starts so the shadow counters see every event. At most one auditor per
// network (the probe slot is single).
func AttachNetwork(nw *netsim.Network, rec *Recorder) *NetAudit {
	a := &NetAudit{nw: nw, rec: rec}
	nw.Engine().SetAudit(true)
	if nw.Engine().EventBudget() == 0 {
		nw.Engine().SetEventBudget(DefaultEventBudget)
	}
	nw.SetLinkProbe(a.onLinkEvent)
	return a
}

func (a *NetAudit) onLinkEvent(now float64, kind netsim.LinkEventKind, l *netsim.Link, dir netsim.Direction, p *packet.Packet) {
	where := l.Index()*2 + int(dir)
	if a.rec != nil {
		var flow uint64
		if p != nil {
			flow = p.Flow().FastHash()
		}
		a.rec.Record(now, Kind(kind.String()), where, flow)
	}
	if where >= len(a.shadow) {
		a.shadow = append(a.shadow, make([]shadowCounts, where+1-len(a.shadow))...)
	}
	sc := &a.shadow[where]
	sc.seen = true
	switch kind {
	case netsim.LinkSent:
		sc.sent++
	case netsim.LinkDelivered:
		sc.delivered++
	case netsim.LinkQueueDrop:
		sc.queuedrop++
	case netsim.LinkDownDrop:
		sc.downdrop++
	case netsim.LinkTapDrop:
		sc.tapdrop++
	case netsim.LinkFailDrop:
		sc.faildrop++
	case netsim.LinkFaultDrop:
		sc.faultdrop++
	case netsim.LinkDuplicated:
		sc.duplicated++
	}
	// The shadow cross-check is deferred to Check/CheckDrained: within one
	// synchronous send, stats are fully updated before the packet's probes
	// fire, so comparing mid-sequence would flag the not-yet-emitted probe.
	a.checkLinkDir(now, l, dir, nil)
}

// checkLinkDir verifies one direction's invariants at the current instant.
// The link's name is built only when a rule fires: this runs on every
// link event, and a passing check must not allocate.
func (a *NetAudit) checkLinkDir(now float64, l *netsim.Link, dir netsim.Direction, sc *shadowCounts) {
	st := l.Stats(dir)
	queued, onWire, held := l.Occupancy(dir)
	if queued < 0 || onWire < 0 || held < 0 {
		a.v.add(now, RuleOccupancy, linkName(l, dir), "negative occupancy (queued=%d onWire=%d tapHeld=%d)", queued, onWire, held)
	}
	if l.QueueCap > 0 && queued > l.QueueCap {
		a.v.add(now, RuleQueueCap, linkName(l, dir), "queue over capacity (%d > %d)", queued, l.QueueCap)
	}
	if !l.Up() && queued > 0 {
		a.v.add(now, RuleQueueSurvives, linkName(l, dir), "%d queued packets surviving a link failure", queued)
	}
	if st.Sent != st.Delivered+st.QueueDrop+st.DownDrop+uint64(queued)+uint64(onWire) {
		a.v.add(now, RuleLinkConservation, linkName(l, dir), "link conservation broken: Sent=%d != Delivered=%d + QueueDrop=%d + DownDrop=%d + queued=%d + onWire=%d",
			st.Sent, st.Delivered, st.QueueDrop, st.DownDrop, queued, onWire)
	}
	if st.Offered+st.Injected+st.Duplicated != st.TapDrop+st.FaultDrop+uint64(held)+st.Sent {
		a.v.add(now, RuleSendConservation, linkName(l, dir), "send-layer conservation broken: Offered=%d + Injected=%d + Duplicated=%d != TapDrop=%d + FaultDrop=%d + held=%d + Sent=%d",
			st.Offered, st.Injected, st.Duplicated, st.TapDrop, st.FaultDrop, held, st.Sent)
	}
	if sc != nil {
		if sc.sent != st.Sent || sc.delivered != st.Delivered || sc.queuedrop != st.QueueDrop ||
			sc.tapdrop != st.TapDrop || sc.downdrop+sc.faildrop != st.DownDrop ||
			sc.faultdrop != st.FaultDrop || sc.duplicated != st.Duplicated {
			a.v.add(now, RuleShadowMismatch, linkName(l, dir), "stats disagree with observed events: stats=%+v events={sent:%d delivered:%d queuedrop:%d downdrop:%d+%d tapdrop:%d faultdrop:%d duplicated:%d}",
				st, sc.sent, sc.delivered, sc.queuedrop, sc.downdrop, sc.faildrop, sc.tapdrop, sc.faultdrop, sc.duplicated)
		}
	}
}

// Check re-verifies every link direction at the current virtual time and
// returns all violations collected so far.
func (a *NetAudit) Check() error {
	now := a.nw.Now()
	for _, l := range a.nw.Links() {
		for _, dir := range []netsim.Direction{netsim.AToB, netsim.BToA} {
			var sc *shadowCounts
			if i := l.Index()*2 + int(dir); i < len(a.shadow) && a.shadow[i].seen {
				sc = &a.shadow[i]
			}
			a.checkLinkDir(now, l, dir, sc)
		}
	}
	return a.v.err()
}

// CheckDrained is the drain-time audit: beyond Check, every link direction
// must hold no packets (queued, on wire, or tap-held), which turns the
// conservation identities into exact equalities over the counters alone.
// Call it once the engine has no in-network traffic left.
func (a *NetAudit) CheckDrained() error {
	now := a.nw.Now()
	for _, l := range a.nw.Links() {
		for _, dir := range []netsim.Direction{netsim.AToB, netsim.BToA} {
			if queued, onWire, held := l.Occupancy(dir); queued != 0 || onWire != 0 || held != 0 {
				a.v.add(now, RuleNotDrained, linkName(l, dir), "not drained (queued=%d onWire=%d tapHeld=%d)",
					queued, onWire, held)
			}
		}
	}
	return a.Check()
}

// Violations returns the structured violations collected so far, in
// detection order — the form the fuzzing shrinker consumes. The slice
// shares the auditor's backing array; callers must not mutate it.
func (a *NetAudit) Violations() []Violation { return a.v.all() }

func linkName(l *netsim.Link, dir netsim.Direction) string {
	na, nb := l.Nodes()
	if dir == netsim.BToA {
		na, nb = nb, na
	}
	return "link#" + strconv.Itoa(l.Index()) + " " + na.Name() + "->" + nb.Name()
}
