// Package trace generates the synthetic workloads that stand in for the
// paper's CAIDA traces: populations of legitimate TCP flows with
// heavy-tailed active durations toward a victim prefix, always-active
// malicious flow pools, and a synthetic "top-20 prefixes" survey.
//
// The paper's theoretical model (§3.1) depends on the traffic only through
// two quantities — tR, the average time a legitimate flow remains sampled
// by Blink's flow selector, and qm, the malicious traffic fraction — so the
// substitution is faithful exactly when those are matched, which the
// calibration helpers here do.
package trace

import (
	"fmt"
	"math"

	"dui/internal/packet"
	"dui/internal/stats"
)

// Event is one generated packet and its emission time.
//
// FlowHash is Pkt.Flow().FastHash(): every generator computes it once when
// a flow starts and carries it on each of the flow's packets, so the
// Blink selector (MonitorBank.FeedHashed) does not rehash a 5-tuple that
// never changes.
type Event struct {
	Time     float64
	Pkt      *packet.Packet
	FlowHash uint64
}

// Stream produces packets in non-decreasing time order. Next reports
// ok=false when the stream is exhausted.
//
// Packet lifetime: the Event.Pkt returned by Next is only valid until the
// next call to Next on the same stream — generators re-fill one
// stream-owned scratch packet so the per-packet hot path allocates
// nothing. Consumers that inspect the packet and move on (Blink's
// MonitorBank.Feed, the tR measurements) need no copy; consumers that retain
// the packet — netsim link queues, MitM taps, anything that buffers —
// must take a Clone() first (blink.PlayStream does).
type Stream interface {
	Next() (Event, bool)
}

// DurationDist samples flow active durations (seconds).
type DurationDist interface {
	Sample(r *stats.RNG) float64
	Mean() float64
	String() string
}

// ExpDuration is an exponential duration distribution.
type ExpDuration struct{ MeanSec float64 }

// Sample implements DurationDist.
func (d ExpDuration) Sample(r *stats.RNG) float64 { return r.Exp(d.MeanSec) }

// Mean implements DurationDist.
func (d ExpDuration) Mean() float64 { return d.MeanSec }

func (d ExpDuration) String() string { return fmt.Sprintf("exp(mean=%.3gs)", d.MeanSec) }

// LogNormalDuration is a log-normal duration distribution (heavy-tailed,
// the usual fit for Internet flow durations).
type LogNormalDuration struct{ Mu, Sigma float64 }

// Sample implements DurationDist.
func (d LogNormalDuration) Sample(r *stats.RNG) float64 { return r.LogNormal(d.Mu, d.Sigma) }

// Mean implements DurationDist: exp(mu + sigma^2/2).
func (d LogNormalDuration) Mean() float64 {
	return math.Exp(d.Mu + d.Sigma*d.Sigma/2)
}

func (d LogNormalDuration) String() string {
	return fmt.Sprintf("lognormal(mu=%.3g,sigma=%.3g)", d.Mu, d.Sigma)
}

// merge implements Stream over multiple sub-streams in time order.
//
// Refilling is lazy: the slot whose event was handed out is not advanced
// until the NEXT call. Advancing eagerly would overwrite the source
// stream's scratch packet before the caller saw the event (see the Stream
// packet-lifetime rule). Each sub-stream owns its scratch, so the one
// buffered event per slot is stable while it waits in the heap.
type merge struct {
	h       []mergeItem
	pending Stream // source whose buffered event was handed out last Next
}

// Merge combines streams into one time-ordered stream.
func Merge(streams ...Stream) Stream {
	m := &merge{}
	for _, s := range streams {
		if ev, ok := s.Next(); ok {
			m.h = append(m.h, mergeItem{ev: ev, src: s})
		}
	}
	// Heapify (container/heap.Init equivalent).
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i, len(m.h))
	}
	return m
}

// Next implements Stream. The packet-lifetime rule of Stream applies: the
// returned Event borrows the source stream's scratch packet.
func (m *merge) Next() (Event, bool) {
	if m.pending != nil {
		src := m.pending
		m.pending = nil
		if ev, ok := src.Next(); ok {
			m.h[0] = mergeItem{ev: ev, src: src}
			m.siftDown(0, len(m.h))
		} else {
			// container/heap.Pop equivalent: swap root/last, sift, shrink.
			n := len(m.h) - 1
			m.h[0], m.h[n] = m.h[n], m.h[0]
			m.siftDown(0, n)
			m.h[n] = mergeItem{} // release the exhausted stream
			m.h = m.h[:n]
		}
	}
	if len(m.h) == 0 {
		return Event{}, false
	}
	it := m.h[0]
	m.pending = it.src
	return it.ev, true
}

// siftDown mirrors container/heap's down on the event-time key, keeping
// the pop order identical to the historical container/heap implementation
// even under exact time ties (TestMergeMatchesContainerHeapUnderTies).
func (m *merge) siftDown(i, n int) {
	h := m.h
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].ev.Time < h[j1].ev.Time {
			j = j2
		}
		if !(h[j].ev.Time < h[i].ev.Time) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

type mergeItem struct {
	ev  Event
	src Stream
}
