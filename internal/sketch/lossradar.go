package sketch

// LossRadar (Li et al., CoNEXT'16) detects individual lost packets by
// keeping one meter upstream and one downstream of a network segment and
// decoding their difference: packets recorded upstream but not downstream
// were lost in between. Each *packet* is a distinct item — its label
// combines the flow ID with a per-packet sequence (LossRadar uses the
// IP-ID field) — so the difference decodes to individual lost packets,
// which are then aggregated per flow. Each meter is therefore a plain
// FlowRadar whose items are packet labels, each added once.
//
// The §3.2 observation applies unchanged: the difference structure
// inherits every pollution weakness of the underlying filter, so an
// attacker can mask a victim's losses (or fabricate phantom ones) by
// crafting packet labels that make the difference undecodable.
type LossRadar struct {
	up, down *FlowRadar
}

// NewLossRadar returns a meter pair with m cells and k hashes each.
func NewLossRadar(m, k int) *LossRadar {
	return &LossRadar{up: New(m, k), down: New(m, k)}
}

// PacketLabel combines a flow ID (48 bits) with a per-packet sequence —
// the unique item inserted into the meters.
func PacketLabel(id FlowID, seq uint16) FlowID {
	return (id&0xFFFFFFFFFFFF)<<16 | FlowID(seq)
}

// FlowOf recovers the flow ID from a packet label.
func FlowOf(item FlowID) FlowID { return item >> 16 }

// Upstream records a packet entering the segment.
func (l *LossRadar) Upstream(id FlowID, seq uint16) { l.up.Add(PacketLabel(id, seq)) }

// Downstream records a packet leaving the segment.
func (l *LossRadar) Downstream(id FlowID, seq uint16) { l.down.Add(PacketLabel(id, seq)) }

// UpstreamRaw inserts an attacker-chosen raw item label (the adversary
// controls every header bit of her own packets).
func (l *LossRadar) UpstreamRaw(item FlowID) { l.up.Add(item) }

// LossReport is the decoded loss map.
type LossReport struct {
	// PerFlow counts lost packets per flow ID.
	PerFlow map[FlowID]uint64
	// Residue counts undecodable cells: > 0 means the loss map is
	// incomplete.
	Residue int
}

// Losses decodes the meter difference into per-flow loss counts.
func (l *LossRadar) Losses() LossReport {
	diff := make([]Cell, len(l.up.cells))
	for i := range diff {
		u, d := l.up.cells[i], l.down.cells[i]
		diff[i] = Cell{
			FlowXOR:   u.FlowXOR ^ d.FlowXOR,
			FlowCount: u.FlowCount - d.FlowCount,
			PktCount:  u.PktCount - d.PktCount,
		}
	}
	tmp := &FlowRadar{cells: diff, k: l.up.k}
	dec := tmp.Decode()
	rep := LossReport{PerFlow: map[FlowID]uint64{}, Residue: dec.Residue}
	for item, n := range dec.Flows {
		rep.PerFlow[FlowOf(item)] += n
	}
	return rep
}
