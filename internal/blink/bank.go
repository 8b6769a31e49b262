package blink

import "dui/internal/packet"

// BankFailure is one failure inference made by a MonitorBank: the dense
// prefix id whose selector crossed the threshold, and when. Failures are
// recorded in feed order; within one prefix they are therefore in
// non-decreasing time order.
type BankFailure struct {
	Prefix int
	Now    float64
}

// MonitorBank is Blink's per-prefix data-plane state: the flow selectors
// plus failure inference of n prefixes, held in flat struct-of-arrays
// storage — one contiguous []Cell of n×Cells slots plus one scalar
// selState per prefix — and fed by dense prefix id. Feeding prefix p
// touches only p's cell segment and scalar record, so a PoP sweep that
// processes prefixes in bursts stays cache-resident. It is driven purely
// by packets (Feed); all timing is derived from packet timestamps, as in
// the P4 implementation.
//
// Every prefix runs the same selCore algorithm on its own segment, so a
// prefix's cell states, window counters, and failure inferences are
// bit-identical to those of a one-prefix bank fed the same packets — the
// property TestMonitorBankMatchesMonitors pins, and popscale's
// TestRunMatchesOnePrefixBanks checks for every prefix of a sharded PoP run.
//
// The warm Feed and FeedHashed paths perform no heap allocation (pinned
// by TestMonitorBankFeedZeroAllocs); the only allocating path is the append
// recording a rare failure inference.
type MonitorBank struct {
	cfg       Config
	threshold int        // cfg.Threshold(), read on every retransmission
	cells     []Cell     // n * cfg.Cells, prefix p owns cells[p*Cells:(p+1)*Cells]
	st        []selState // one scalar record per prefix

	// cur is the prefix currently being fed; the event methods read it to
	// tag events. A MonitorBank is single-goroutine.
	cur int

	failures  []BankFailure
	nFailures []uint32 // per-prefix failure counts (dense, for summaries)

	onFailure []func(prefix int, now float64)
	onRetrans []func(prefix int, ev RetransEvent)
	onEvict   []func(prefix int, ev Eviction)
	onSample  []func(prefix int, now float64, key packet.FlowKey, cell int)
}

// NewMonitorBank returns a bank of n per-prefix selectors with the given
// (defaulted) config. All state is allocated up front in two flat arrays;
// nothing else is allocated over the bank's lifetime except the record of
// inferred failures.
func NewMonitorBank(n int, cfg Config) *MonitorBank {
	cfg = cfg.Defaults()
	b := &MonitorBank{
		cfg:       cfg,
		threshold: cfg.Threshold(),
		cells:     make([]Cell, n*cfg.Cells),
		st:        make([]selState, n),
		nFailures: make([]uint32, n),
	}
	for i := range b.st {
		b.st[i] = selState{nextReset: cfg.ResetPeriod, armed: true}
	}
	return b
}

// Config returns the effective configuration.
func (b *MonitorBank) Config() Config { return b.cfg }

// Prefixes returns the number of prefixes the bank monitors.
func (b *MonitorBank) Prefixes() int { return len(b.st) }

// seg returns prefix p's cell segment. The full-slice expression pins the
// capacity so an observer cannot grow into a neighbor's segment.
func (b *MonitorBank) seg(p int) []Cell {
	lo := p * b.cfg.Cells
	return b.cells[lo : lo+b.cfg.Cells : lo+b.cfg.Cells]
}

// core returns the selector view of prefix p for the shared algorithm.
func (b *MonitorBank) core(p int) selCore {
	return selCore{b: b, cells: b.seg(p), st: &b.st[p]}
}

// Feed processes one packet toward prefix p's selector. Non-TCP packets
// are ignored (Blink monitors TCP only). Packets for one prefix must
// arrive in non-decreasing time order; different prefixes are
// independent, so the interleaving across prefixes is unconstrained.
func (b *MonitorBank) Feed(p int, now float64, pkt *packet.Packet) {
	b.FeedHashed(p, now, pkt, pkt.Flow().FastHash())
}

// FeedHashed is Feed for a caller that already holds the packet's flow
// hash h, which must equal pkt.Flow().FastHash() — as trace.Event.FlowHash
// does — so the selector skips rehashing the 5-tuple.
func (b *MonitorBank) FeedHashed(p int, now float64, pkt *packet.Packet, h uint64) {
	b.cur = p
	b.core(p).feed(now, pkt, h)
}

// Restart models a crash and power-cycle of the device holding prefix p's
// selector state: every occupied cell is evicted (reported to OnEvict with
// Reset=true — residences ended by state loss, not by the sampling rules),
// failure inference re-arms, and the sample-reset clock restarts at now.
// Registered observers survive — they model the control plane and the
// auditors, not router RAM.
func (b *MonitorBank) Restart(p int, now float64) {
	b.cur = p
	b.core(p).restart(now)
}

// OnFailure registers a failure-inference observer. Observers of every
// kind accumulate and run in registration order, so a reroute pipeline, a
// guard, and an audit tracer can observe the same bank; each sees every
// prefix and filters the ones it watches.
func (b *MonitorBank) OnFailure(f func(prefix int, now float64)) {
	b.onFailure = append(b.onFailure, f)
}

// OnRetrans registers a retransmission observer.
func (b *MonitorBank) OnRetrans(f func(prefix int, ev RetransEvent)) {
	b.onRetrans = append(b.onRetrans, f)
}

// OnEvict registers an eviction observer (tR measurement).
func (b *MonitorBank) OnEvict(f func(prefix int, ev Eviction)) { b.onEvict = append(b.onEvict, f) }

// OnSample registers an observer of cell occupations — the counterpart of
// OnEvict, used by the audit event tracer to record every residence.
func (b *MonitorBank) OnSample(f func(prefix int, now float64, key packet.FlowKey, cell int)) {
	b.onSample = append(b.onSample, f)
}

// sampled reports a cell occupation of the prefix being fed.
func (b *MonitorBank) sampled(now float64, key packet.FlowKey, cell int) {
	for _, f := range b.onSample {
		f(b.cur, now, key, cell)
	}
}

// evicted reports the end of a residence in the prefix being fed.
func (b *MonitorBank) evicted(ev Eviction) {
	for _, f := range b.onEvict {
		f(b.cur, ev)
	}
}

// retrans reports a retransmission detected in the prefix being fed.
func (b *MonitorBank) retrans(ev RetransEvent) {
	for _, f := range b.onRetrans {
		f(b.cur, ev)
	}
}

// failed records an inference against the prefix being fed, then hands it
// to the OnFailure observers.
func (b *MonitorBank) failed(now float64) {
	b.failures = append(b.failures, BankFailure{Prefix: b.cur, Now: now})
	b.nFailures[b.cur]++
	for _, f := range b.onFailure {
		f(b.cur, now)
	}
}

// Failures returns every failure inference in feed order (shared backing
// array; callers must not mutate).
func (b *MonitorBank) Failures() []BankFailure { return b.failures }

// FailureCount returns how many failures prefix p has inferred.
func (b *MonitorBank) FailureCount(p int) int { return int(b.nFailures[p]) }

// CellsAt returns a snapshot copy of prefix p's selector state.
func (b *MonitorBank) CellsAt(p int) []Cell {
	out := make([]Cell, b.cfg.Cells)
	copy(out, b.seg(p))
	return out
}

// AuditWindowState exposes prefix p's incremental failure-inference
// counters for the invariant checker (internal/audit): the number of cells
// currently counted as retransmitting in-window, and the conservative
// lower bound on their earliest LastRetr.
func (b *MonitorBank) AuditWindowState(p int) (retrCount int, minLastRetr float64) {
	return b.st[p].retrCount, b.st[p].minLastRetr
}

// CountOccupied returns how many of prefix p's cells match pred (pred nil
// counts all occupied cells). The Fig 2 experiment counts cells occupied
// by malicious flows.
func (b *MonitorBank) CountOccupied(p int, pred func(packet.FlowKey) bool) int {
	return countOccupied(b.seg(p), pred)
}

// OccupiedTotal returns the number of occupied cells across every prefix —
// the end-state occupancy headline of the PoP experiment.
func (b *MonitorBank) OccupiedTotal() int {
	return countOccupied(b.cells, nil)
}
