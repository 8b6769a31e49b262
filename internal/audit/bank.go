package audit

import (
	"math"
	"reflect"
	"strconv"

	"dui/internal/blink"
	"dui/internal/packet"
)

// BankAudit cross-checks a PoP-scale blink.MonitorBank against shadow
// one-prefix banks on a sample of its prefixes. For every audited prefix
// the auditor keeps an independent one-prefix bank — the shape every
// single-prefix experiment uses — feeds it the exact packets the bank
// sees, runs the full MonAudit selector-invariant checks on it, and at
// Check time demands the bank's flat state be *bit-identical* to the
// shadow: cells (including unexported tracking fields, via
// reflect.DeepEqual), the incremental window counters, and the failure
// inference times. Both run the same selector algorithm, so what the
// cross-check catches is a wrong segment offset or prefix tag — traffic
// or state of one prefix landing in another; the violation names the
// prefix.
type BankAudit struct {
	bank *blink.MonitorBank
	// idx maps a bank prefix id to its slot in prefixes/shadows (-1 when
	// the prefix is not audited), so Feed costs one slice load per packet.
	idx      []int32
	prefixes []int
	shadows  []*blink.MonitorBank
	mons     []*MonAudit
	v        violations
}

// AttachBank builds the cross-checker for the given bank prefix ids
// (deduplicated, must be in [0, bank.Prefixes())). When rec is non-nil the
// shadow banks also record their residence/retransmission/failure events
// into it, exactly as AttachMonitor does for single-prefix experiments.
func AttachBank(bank *blink.MonitorBank, prefixes []int, rec *Recorder) *BankAudit {
	a := &BankAudit{
		bank: bank,
		idx:  make([]int32, bank.Prefixes()),
	}
	for i := range a.idx {
		a.idx[i] = -1
	}
	for _, p := range prefixes {
		if a.idx[p] >= 0 {
			continue
		}
		a.idx[p] = int32(len(a.prefixes))
		a.prefixes = append(a.prefixes, p)
		m := blink.NewMonitorBank(1, bank.Config())
		a.shadows = append(a.shadows, m)
		a.mons = append(a.mons, AttachMonitor(m, rec))
	}
	return a
}

// Prefixes returns the audited bank prefix ids in attachment order.
func (a *BankAudit) Prefixes() []int { return a.prefixes }

// Feed mirrors one packet into prefix p's shadow bank, when p is
// audited. Call it with exactly the (p, now, pkt) arguments passed to the
// bank's Feed; unaudited prefixes cost one array load.
func (a *BankAudit) Feed(p int, now float64, pkt *packet.Packet) {
	if i := a.idx[p]; i >= 0 {
		a.shadows[i].Feed(0, now, pkt)
	}
}

// Check verifies every audited prefix at virtual time now (>= the last
// Feed time): the shadow bank's own selector invariants (MonAudit), and
// bank-vs-shadow state identity. It returns all violations joined, nil
// when the bank is exact.
func (a *BankAudit) Check(now float64) error {
	for i, p := range a.prefixes {
		if err := a.mons[i].Check(now); err != nil {
			a.v.add(now, RuleSelector, prefixName(p), "shadow bank invariants: %v", err)
		}
		a.comparePrefix(now, p, a.shadows[i])
	}
	return a.v.err()
}

// comparePrefix demands bit-identity between the bank's prefix p and its
// one-prefix shadow bank m.
func (a *BankAudit) comparePrefix(now float64, p int, m *blink.MonitorBank) {
	where := prefixName(p)
	if !reflect.DeepEqual(a.bank.CellsAt(p), m.CellsAt(0)) {
		a.v.add(now, RuleSelector, where, "bank cells diverge from the shadow bank")
	}
	bc, bm := a.bank.AuditWindowState(p)
	sc, sm := m.AuditWindowState(0)
	if bc != sc || !sameFloat(bm, sm) {
		a.v.add(now, RuleSelector, where,
			"bank window counters (count %d, min %.9g) != shadow (count %d, min %.9g)", bc, bm, sc, sm)
	}
	shadow := m.Failures()
	if got := a.bank.FailureCount(p); got != len(shadow) {
		a.v.add(now, RuleSelector, where, "bank inferred %d failures, shadow %d", got, len(shadow))
		return
	}
	i := 0
	for _, f := range a.bank.Failures() {
		if f.Prefix != p {
			continue
		}
		if f.Now != shadow[i].Now {
			a.v.add(now, RuleSelector, where,
				"failure %d at %.9g in the bank, %.9g in the shadow", i, f.Now, shadow[i].Now)
		}
		i++
	}
}

// Violations returns the structured violations collected so far (shared
// backing array; callers must not mutate).
func (a *BankAudit) Violations() []Violation { return a.v.all() }

// sameFloat is float64 equality that also identifies NaN with NaN (the
// window minimum is +Inf/NaN-free by construction, but the comparison must
// not mask a divergence into one).
func sameFloat(x, y float64) bool {
	return x == y || (math.IsNaN(x) && math.IsNaN(y))
}

func prefixName(p int) string { return "prefix " + strconv.Itoa(p) }
