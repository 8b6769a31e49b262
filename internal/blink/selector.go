// Package blink reimplements Blink (Holterbach et al., NSDI'19) — the
// data-plane fast-reroute system attacked in §3.1 of the paper — together
// with the attack, the theoretical attack model, and the Fig 2 experiment.
//
// Blink infers remote failures from TCP retransmissions, entirely in the
// data plane: per destination prefix it monitors a small sample of flows
// (64 cells indexed by a hash of the 5-tuple) and reroutes the prefix when
// a majority of the monitored flows retransmit within a short window. The
// sampling rules reproduced here are the ones the attack exploits:
//
//   - one flow per cell; a colliding flow is ignored while the cell's
//     occupant is live,
//   - the occupant is evicted when it finishes (FIN/RST) or has been
//     inactive for 2 s, freeing the cell for the next colliding packet,
//   - the whole sample is reset every 8.5 min.
//
// A host-level attacker keeps her flows always active so that, cell by
// cell, the sample fills with malicious flows that are never evicted until
// the reset (§3.1, Fig 2).
//
// Per-prefix state lives in one shape, the *MonitorBank: the selectors of
// n prefixes in flat struct-of-arrays storage, fed by dense prefix id. A
// single-prefix experiment is a one-prefix bank, and so is a Pipeline: a
// Pipeline serves one prefix, and a router monitors several by attaching
// one Pipeline per prefix.
package blink

import (
	"math"

	"dui/internal/packet"
)

// RetransWindow is the sliding window (seconds) within which
// retransmitting monitored flows are counted toward the threshold: the
// paper's 800 ms (§3.1).
const RetransWindow = 0.8

// Config holds Blink's data-plane parameters, defaulting to the values of
// the paper (64 cells, 2 s inactivity eviction, 8.5 min sample reset).
type Config struct {
	// Cells is the flow-selector array size per prefix.
	Cells int
	// InactivityTimeout evicts a monitored flow idle this long (seconds).
	InactivityTimeout float64
	// ResetPeriod clears the whole sample this often (seconds); the
	// attacker's time budget tB.
	ResetPeriod float64
}

// Defaults fills zero fields with the paper's values and returns the
// config.
func (c Config) Defaults() Config {
	if c.Cells <= 0 {
		c.Cells = 64
	}
	if c.InactivityTimeout <= 0 {
		c.InactivityTimeout = 2.0
	}
	if c.ResetPeriod <= 0 {
		c.ResetPeriod = 510 // 8.5 min
	}
	return c
}

// Threshold is the number of monitored flows retransmitting within
// RetransWindow that triggers failure inference: a majority of the cells,
// Cells/2 in integer division (32 of 64).
func (c Config) Threshold() int { return c.Cells / 2 }

// Cell is one slot of the flow selector.
type Cell struct {
	Occupied   bool
	Key        packet.FlowKey
	SampledAt  float64 // when the current occupant was sampled
	LastSeen   float64
	LastSeq    uint32
	seqValid   bool
	Finished   bool    // saw FIN or RST
	LastRetr   float64 // time of the most recent retransmission
	hasRetr    bool
	counted    bool    // included in the monitor's in-window retrans count
	prevPktGap float64 // gap between the retransmission and previous packet
}

// RetransEvent describes one detected retransmission, as consumed by the
// §5 supervisor (which compares retransmission timing against the expected
// RTO distribution).
type RetransEvent struct {
	Now  float64
	Key  packet.FlowKey
	Cell int
	// Gap is the time since the flow's previous packet — for a genuine
	// RTO-driven retransmission this is the flow's RTO (>= RTOmin), while
	// attack traffic shows its own packet spacing.
	Gap float64
}

// Eviction describes the end of one monitored residence; residence times
// are the tR statistic of §3.1.
type Eviction struct {
	Now       float64
	Key       packet.FlowKey
	Cell      int
	Residence float64
	// Reset is true when the residence ended due to a sample reset
	// rather than eviction (excluded from tR measurements).
	Reset bool
}

// selState is the per-prefix scalar selector state beside the cells: the
// sample-reset clock, the one-inference-per-epoch arming bit, and the
// incremental failure-inference counters. A MonitorBank holds a flat
// array of them indexed by prefix id.
type selState struct {
	nextReset float64
	armed     bool

	// Incremental failure inference: retrCount tracks how many cells have
	// a retransmission inside the sliding window, so a retransmission
	// storm costs O(1) per packet instead of a scan of all cells.
	// minLastRetr is a conservative lower bound (never above the true
	// minimum) on LastRetr over counted cells; while now-minLastRetr is
	// within the window, no counted cell can have expired, so the count is
	// exact without rescanning.
	retrCount   int
	minLastRetr float64
}

// selCore is a borrowed view of one prefix's selector — its cell segment
// and scalar state inside bank b — carrying the entire data-plane
// algorithm. MonitorBank constructs one per Feed; the compiler keeps it on
// the stack, so the view costs no allocation. Events go straight to the
// bank, which tags them with the prefix being fed.
type selCore struct {
	b     *MonitorBank
	cells []Cell
	st    *selState
}

// feed processes one packet, whose flow hash is h, toward the monitored
// prefix. Non-TCP packets are ignored (Blink monitors TCP only).
func (s selCore) feed(now float64, p *packet.Packet, h uint64) {
	if p.TCP == nil {
		return
	}
	s.maybeReset(now)
	key := p.Flow()
	idx := int(h % uint64(len(s.cells)))
	c := &s.cells[idx]

	switch {
	case !c.Occupied:
		s.sample(c, idx, key, now)
	case c.Key == key:
		s.update(c, idx, p, now)
	default:
		// Collision: evict only a finished or inactive occupant.
		if c.Finished || now-c.LastSeen >= s.b.cfg.InactivityTimeout {
			s.evict(c, idx, now, false)
			s.sample(c, idx, key, now)
			s.update(c, idx, p, now)
		}
	}
}

func (s selCore) sample(c *Cell, idx int, key packet.FlowKey, now float64) {
	*c = Cell{Occupied: true, Key: key, SampledAt: now, LastSeen: now}
	s.b.sampled(now, key, idx)
}

func (s selCore) update(c *Cell, idx int, p *packet.Packet, now float64) {
	gap := now - c.LastSeen
	isData := p.Size > 40 // ignore pure ACKs for seq tracking
	if isData && c.seqValid && p.TCP.Seq == c.LastSeq {
		// Retransmission detected, as in Blink's P4 pipeline: the new
		// packet repeats the last sequence number.
		c.LastRetr = now
		c.hasRetr = true
		c.prevPktGap = gap
		s.b.retrans(RetransEvent{Now: now, Key: c.Key, Cell: idx, Gap: gap})
		s.noteRetrans(c, now)
	} else if isData {
		c.LastSeq = p.TCP.Seq
		c.seqValid = true
	}
	if p.TCP.Flags&(packet.FlagFIN|packet.FlagRST) != 0 {
		c.Finished = true
	}
	c.LastSeen = now
}

// noteRetrans maintains the incremental in-window retransmission count for
// the cell that just retransmitted (c.LastRetr == now) and fires failure
// inference at the threshold. The count equals exactly what a full scan
// (Occupied && hasRetr && now-LastRetr <= RetransWindow) would report:
// monitors are fed in non-decreasing time order, so between recounts a
// counted cell's window test cannot flip false while now-minLastRetr <=
// RetransWindow (IEEE subtraction is monotone), and an uncounted cell's
// test cannot flip true without the cell passing through noteRetrans.
func (s selCore) noteRetrans(c *Cell, now float64) {
	st := s.st
	if st.retrCount > 0 && now-st.minLastRetr > RetransWindow {
		s.recount(now)
	}
	if !c.counted {
		c.counted = true
		st.retrCount++
		if st.retrCount == 1 || now < st.minLastRetr {
			st.minLastRetr = now
		}
	}
	if st.armed && st.retrCount >= s.b.threshold {
		st.armed = false // one inference per sample epoch
		s.b.failed(now)
	}
}

// recount rebuilds the incremental count by scanning all cells — the slow
// path, taken only when the earliest counted retransmission may have left
// the window, not on every retransmission of a storm.
func (s selCore) recount(now float64) {
	st := s.st
	st.retrCount = 0
	st.minLastRetr = math.Inf(1)
	for i := range s.cells {
		c := &s.cells[i]
		if c.Occupied && c.hasRetr && now-c.LastRetr <= RetransWindow {
			c.counted = true
			st.retrCount++
			if c.LastRetr < st.minLastRetr {
				st.minLastRetr = c.LastRetr
			}
		} else {
			c.counted = false
		}
	}
}

func (s selCore) evict(c *Cell, idx int, now float64, reset bool) {
	if c.Occupied {
		s.b.evicted(Eviction{Now: now, Key: c.Key, Cell: idx, Residence: now - c.SampledAt, Reset: reset})
	}
	if c.counted {
		s.st.retrCount--
	}
	*c = Cell{}
}

// restart models a router crash and power-cycle: every occupied cell is
// evicted (reported to the bank with Reset=true — residences ended by
// state loss, not by the sampling rules), failure inference re-arms, and
// the sample-reset clock restarts at now.
func (s selCore) restart(now float64) {
	for i := range s.cells {
		s.evict(&s.cells[i], i, now, true)
	}
	s.st.retrCount = 0
	s.st.minLastRetr = 0
	s.st.armed = true
	s.st.nextReset = now + s.b.cfg.ResetPeriod
}

// maybeReset clears the sample when the reset period elapses (checked on
// packet arrival, as a data plane would with a timestamp comparison).
func (s selCore) maybeReset(now float64) {
	for now >= s.st.nextReset {
		for i := range s.cells {
			s.evict(&s.cells[i], i, s.st.nextReset, true)
		}
		s.st.nextReset += s.b.cfg.ResetPeriod
		s.st.armed = true
	}
}

// Counted reports whether the cell is included in the selector's
// incremental in-window retransmission count (audit introspection).
func (c Cell) Counted() bool { return c.counted }

// HasRetr reports whether the cell's occupant has ever retransmitted
// (audit introspection; LastRetr is only meaningful when true).
func (c Cell) HasRetr() bool { return c.hasRetr }

// countOccupied is the occupancy scan behind MonitorBank.CountOccupied and
// MonitorBank.OccupiedTotal.
func countOccupied(cells []Cell, pred func(packet.FlowKey) bool) int {
	n := 0
	for i := range cells {
		c := &cells[i]
		if c.Occupied && (pred == nil || pred(c.Key)) {
			n++
		}
	}
	return n
}
