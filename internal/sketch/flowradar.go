// Package sketch reimplements the probabilistic monitoring structure of
// FlowRadar (Li et al., NSDI'16), one of the §3.2 case studies: a counting
// Bloom filter variant that encodes per-flow counters in constant
// per-packet time and is decoded off-path by iteratively peeling "pure"
// cells (cells touched by exactly one flow).
//
// The paper's observation, after Gerbet et al. and Crosby–Wallach: such
// structures are dimensioned for the average case, so an adversary who
// knows the (unkeyed) hash functions can craft flow labels that pile into
// a small set of cells, destroying the pure cells the decoder needs —
// "an attacker can pollute, or even saturate a bloom filter, resulting in
// inaccurate network statistics".
package sketch

// FlowID is the flow label carried by packets (an opaque 64-bit value;
// real FlowRadar uses the 5-tuple).
type FlowID uint64

// Cell is one slot of the encode table.
type Cell struct {
	FlowXOR   FlowID // XOR of all flow labels mapped here
	FlowCount uint32 // number of distinct flows mapped here
	PktCount  uint64 // total packets of those flows
}

// Pure reports whether exactly one flow maps to the cell.
func (c Cell) Pure() bool { return c.FlowCount == 1 }

// FlowRadar is the encode table: k hash positions per flow over m cells,
// plus a small exact-membership filter to count a flow only once.
type FlowRadar struct {
	cells []Cell
	k     int
	salt  FlowID
	seen  map[FlowID]bool
}

// New returns a table with m cells and k hashes per flow. The table is
// partitioned into k equal ranges with one hash position per range (the
// standard IBLT construction), so a flow's positions are always distinct.
func New(m, k int) *FlowRadar {
	return NewSalted(m, k, 0)
}

// NewSalted returns a table whose hash positions are keyed by a secret
// salt — the §5 countermeasure the Positions doc comment points at. Salt
// 0 is the public unkeyed table New returns; labels crafted against the
// public hash behave like random labels against any non-zero salt, which
// is what the supervisor's cross-validation guard exploits.
func NewSalted(m, k int, salt uint64) *FlowRadar {
	if m <= 0 || k <= 0 || m < k {
		panic("sketch: need positive table size >= hash count")
	}
	return &FlowRadar{cells: make([]Cell, m), k: k, salt: FlowID(salt), seen: map[FlowID]bool{}}
}

// M returns the cell count; K the hashes per flow.
func (f *FlowRadar) M() int { return len(f.cells) }

// K returns the number of hash positions per flow.
func (f *FlowRadar) K() int { return f.k }

// Positions returns the k cell indices of a flow. With salt 0 the hash
// is public and unkeyed — exactly the assumption under which the
// pollution attack works (per Kerckhoff, §2.1); a NewSalted table keys
// the hash by XORing the secret salt into the label first.
func (f *FlowRadar) Positions(id FlowID) []int {
	return appendPositions(make([]int, 0, f.k), id^f.salt, f.k, len(f.cells))
}

// FNV-1a 64-bit parameters, as hash/fnv uses them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// appendPositions appends the k cell indices of a (salted) label to dst
// and returns the extended slice. Callers pass a stack array's [:0] so
// the per-packet path does not allocate for k <= len of that array.
//
// Partition i's index is FNV-1a over the 9 bytes {i, id big-endian}. The
// partition index goes FIRST: appended last it would only perturb FNV's
// final step, leaving the per-partition offsets of one id
// deterministically correlated (two flows colliding in one partition
// would collide in all of them, which breaks peeling).
func appendPositions(dst []int, id FlowID, k, m int) []int {
	rangeLen := m / k
	for i := 0; i < k; i++ {
		h := (fnvOffset64 ^ uint64(byte(i))) * fnvPrime64
		for shift := 56; shift >= 0; shift -= 8 {
			h ^= uint64(byte(id >> shift))
			h *= fnvPrime64
		}
		dst = append(dst, i*rangeLen+int(h%uint64(rangeLen)))
	}
	return dst
}

// Add records one packet of the given flow: the flow's label enters the
// XOR/count fields once (first packet), every packet bumps the packet
// counters — FlowRadar's flowset encoding.
func (f *FlowRadar) Add(id FlowID) {
	newFlow := !f.seen[id]
	if newFlow {
		f.seen[id] = true
	}
	var buf [8]int
	for _, p := range appendPositions(buf[:0], id^f.salt, f.k, len(f.cells)) {
		c := &f.cells[p]
		if newFlow {
			c.FlowXOR ^= id
			c.FlowCount++
		}
		c.PktCount++
	}
}

// AddPacket records one packet in LossRadar's per-packet encoding: every
// packet XORs its flow label into the cells and bumps both counters, so
// subtracting two meters leaves exactly the lost packets (a flow present
// in both meters cancels out of the flow fields entirely).
func (f *FlowRadar) AddPacket(id FlowID) {
	var buf [8]int
	for _, p := range appendPositions(buf[:0], id^f.salt, f.k, len(f.cells)) {
		c := &f.cells[p]
		c.FlowXOR ^= id
		c.FlowCount++
		c.PktCount++
	}
}

// Decoded is the result of decoding the table.
type Decoded struct {
	// Flows maps recovered flow labels to packet counts.
	Flows map[FlowID]uint64
	// Residue is the number of cells left undecodable (non-zero flow
	// count after peeling) — zero for a fully successful decode.
	Residue int
}

// Decode runs the peeling decoder: repeatedly find a pure cell, emit its
// flow, and subtract the flow from all its cells.
func (f *FlowRadar) Decode() Decoded {
	cells := make([]Cell, len(f.cells))
	copy(cells, f.cells)
	out := Decoded{Flows: map[FlowID]uint64{}}

	queue := make([]int, 0, len(cells))
	var refBuf [8]int
	for i, c := range cells {
		if c.Pure() {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		c := &cells[i]
		if !c.Pure() {
			continue // became impure/empty since enqueued
		}
		id := c.FlowXOR
		// Sanity: a genuinely pure cell's XOR is a real flow label, so
		// it must hash back to this cell. (With distinct per-partition
		// positions this always holds; the check guards the decoder
		// against adversarially corrupted state regardless.)
		backRefs := appendPositions(refBuf[:0], id^f.salt, f.k, len(cells))
		found := false
		for _, p := range backRefs {
			if p == i {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		// The pure cell counts each of the flow's packets exactly once,
		// so its PktCount is the flow's packet total. Accumulate: in
		// per-packet (LossRadar) encoding the same flow can be peeled
		// once per lost packet.
		pkts := c.PktCount
		out.Flows[id] += pkts
		for _, p := range backRefs {
			cc := &cells[p]
			cc.FlowXOR ^= id
			cc.FlowCount--
			cc.PktCount -= pkts
			if cc.Pure() {
				queue = append(queue, p)
			}
		}
	}
	for _, c := range cells {
		if c.FlowCount > 0 {
			out.Residue++
		}
	}
	return out
}
