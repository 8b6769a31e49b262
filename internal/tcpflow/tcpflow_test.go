package tcpflow

import (
	"math"
	"testing"

	"dui/internal/netsim"
	"dui/internal/packet"
)

// pair builds h1 -- r -- h2 and returns the network, the two endpoints and
// the two links.
func pair(rateBps, delay float64, qcap int) (*netsim.Network, *Endpoint, *Endpoint, []*netsim.Link) {
	nw := netsim.New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	r := nw.AddRouter("r")
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	l1 := nw.Connect(h1, r, rateBps, delay, qcap)
	l2 := nw.Connect(r, h2, rateBps, delay, qcap)
	nw.ComputeRoutes()
	return nw, NewEndpoint(h1), NewEndpoint(h2), []*netsim.Link{l1, l2}
}

func flowKey(a, b *Endpoint, sport uint16) packet.FlowKey {
	return packet.FlowKey{
		Src: a.Node().Addr, Dst: b.Node().Addr,
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP,
	}
}

func TestTransferCompletes(t *testing.T) {
	nw, e1, e2, _ := pair(10e6, 0.005, 0)
	done := false
	s := Start(e1, e2, Config{Key: flowKey(e1, e2, 1000), TotalBytes: 100 * 1460})
	s.OnComplete = func(now float64) { done = true }
	nw.RunUntil(30)
	st := s.Stats()
	if !done || !st.Completed {
		t.Fatalf("transfer incomplete: %+v", st)
	}
	if st.AckedBytes < 100*1460 {
		t.Fatalf("acked %d bytes", st.AckedBytes)
	}
	if st.Retransmissions != 0 {
		t.Fatalf("clean path produced %d retransmissions", st.Retransmissions)
	}
	if math.Abs(st.SRTT-0.02) > 0.005 { // 4 hops x 5ms
		t.Fatalf("SRTT = %v, want ~0.02", st.SRTT)
	}
}

func TestThroughputBoundedByBottleneck(t *testing.T) {
	// 1 Mbps bottleneck, large transfer with AIMD: goodput should land
	// near the link rate, not above it.
	nw, e1, e2, _ := pair(1e6, 0.005, 20)
	total := int64(200 * 1460)
	s := Start(e1, e2, Config{Key: flowKey(e1, e2, 1001), TotalBytes: total, AIMD: true})
	nw.RunUntil(60)
	st := s.Stats()
	if !st.Completed {
		t.Fatalf("transfer incomplete: %+v", st)
	}
	goodput := float64(total) * 8 / st.CompletionTime
	if goodput > 1e6*1.05 {
		t.Fatalf("goodput %v exceeds link rate", goodput)
	}
	if goodput < 0.5e6 {
		t.Fatalf("goodput %v too low for a 1 Mbps path", goodput)
	}
}

func TestPathFailureCausesRTOBackoff(t *testing.T) {
	nw, e1, e2, links := pair(10e6, 0.005, 0)
	s := Start(e1, e2, Config{Key: flowKey(e1, e2, 1002), AIMD: true})
	// Let it run, then cut the path.
	nw.FailLink(links[1], 1.0)
	nw.RunUntil(20)
	st := s.Stats()
	if st.Retransmissions < 3 {
		t.Fatalf("failure produced only %d retransmissions", st.Retransmissions)
	}
	if st.Completed {
		t.Fatal("flow cannot complete over a dead path")
	}
	// Exponential backoff: over 19s post-failure there should be
	// noticeably fewer retransmissions than one per RTO-min.
	if st.Retransmissions > 30 {
		t.Fatalf("no backoff: %d retransmissions", st.Retransmissions)
	}
}

func TestCongestionCausesRetransmissionsButRecovers(t *testing.T) {
	// Tiny queue and high AIMD ceiling forces loss; flow must still finish.
	nw, e1, e2, _ := pair(2e6, 0.005, 5)
	total := int64(500 * 1460)
	s := Start(e1, e2, Config{Key: flowKey(e1, e2, 1003), TotalBytes: total, AIMD: true, Window: 4})
	nw.RunUntil(120)
	st := s.Stats()
	if !st.Completed {
		t.Fatalf("transfer incomplete: %+v", st)
	}
	if st.Retransmissions == 0 {
		t.Fatal("expected losses on a 5-packet queue")
	}
}

func TestPacingLimitsRate(t *testing.T) {
	nw, e1, e2, _ := pair(10e6, 0.005, 0)
	s := Start(e1, e2, Config{Key: flowKey(e1, e2, 1004), Pace: 10}) // 10 segments/s
	nw.RunUntil(5)
	st := s.Stats()
	if st.SentSegments > 55 {
		t.Fatalf("pacing violated: %d segments in 5s", st.SentSegments)
	}
	if st.SentSegments < 40 {
		t.Fatalf("pacing too strict: %d segments in 5s", st.SentSegments)
	}
}

func TestStopHaltsFlow(t *testing.T) {
	nw, e1, e2, _ := pair(10e6, 0.005, 0)
	s := Start(e1, e2, Config{Key: flowKey(e1, e2, 1005)})
	nw.RunUntil(1)
	before := s.Stats().SentSegments
	s.Stop()
	nw.RunUntil(5)
	if got := s.Stats().SentSegments; got != before {
		t.Fatalf("sent %d segments after Stop (was %d)", got, before)
	}
}

func TestTwoFlowsShareEndpointIndependently(t *testing.T) {
	nw, e1, e2, _ := pair(10e6, 0.005, 0)
	s1 := Start(e1, e2, Config{Key: flowKey(e1, e2, 2000), TotalBytes: 20 * 1460})
	s2 := Start(e1, e2, Config{Key: flowKey(e1, e2, 2001), TotalBytes: 20 * 1460})
	nw.RunUntil(30)
	if !s1.Stats().Completed || !s2.Stats().Completed {
		t.Fatalf("flows incomplete: %+v %+v", s1.Stats(), s2.Stats())
	}
}

func TestReceiverHandlesReordering(t *testing.T) {
	// A tap swaps the order of two consecutive segments by delaying one;
	// cumulative ACKing must still complete the transfer.
	nw, e1, e2, links := pair(10e6, 0.005, 0)
	delayed := false
	links[0].AttachTap(netsim.TapFunc(func(now float64, p *packet.Packet, dir netsim.Direction) netsim.TapVerdict {
		if dir == netsim.AToB && p.TCP != nil && p.TCP.Seq == 1460 && !delayed {
			delayed = true
			return netsim.TapVerdict{Delay: 0.05}
		}
		return netsim.TapVerdict{}
	}))
	s := Start(e1, e2, Config{Key: flowKey(e1, e2, 3000), TotalBytes: 10 * 1460})
	nw.RunUntil(30)
	if !s.Stats().Completed {
		t.Fatalf("reordered transfer incomplete: %+v", s.Stats())
	}
	if !delayed {
		t.Fatal("test did not exercise reordering")
	}
}

func TestMitMDropTriggersFastRetransmit(t *testing.T) {
	nw, e1, e2, links := pair(10e6, 0.005, 0)
	dropped := false
	links[1].AttachTap(netsim.TapFunc(func(now float64, p *packet.Packet, dir netsim.Direction) netsim.TapVerdict {
		if dir == netsim.AToB && p.TCP != nil && p.TCP.Seq == 2*1460 && !dropped {
			dropped = true
			return netsim.TapVerdict{Drop: true}
		}
		return netsim.TapVerdict{}
	}))
	s := Start(e1, e2, Config{Key: flowKey(e1, e2, 3001), TotalBytes: 50 * 1460, AIMD: true})
	nw.RunUntil(30)
	st := s.Stats()
	if !dropped {
		t.Fatal("tap never dropped")
	}
	if !st.Completed {
		t.Fatalf("transfer incomplete after single loss: %+v", st)
	}
	if st.Retransmissions == 0 {
		t.Fatal("loss did not cause a retransmission")
	}
	// Fast retransmit should recover in ~1 RTT, far before the 1s RTO:
	// completion of 50 segments at 10 Mbps with RTT 20 ms stays under 2 s.
	if st.CompletionTime > 2 {
		t.Fatalf("recovery too slow (%.3fs): RTO instead of fast retransmit?", st.CompletionTime)
	}
}

// TestPacedPendingBounded checks that a paced flow keeps a bounded number
// of engine events pending: one pacing wake-up, its RTO arms and the
// packets on the wire. Blink's failover flow shape (Pace 4, Window 2)
// takes an ACK inside every pacing gap, and each ACK hits the pacing gate;
// when every hit scheduled its own wake-up, the duplicates re-armed
// forever and the queue grew by one per ACK.
func TestPacedPendingBounded(t *testing.T) {
	nw, e1, e2, _ := pair(10e6, 0.005, 0)
	Start(e1, e2, Config{Key: flowKey(e1, e2, 1006), Window: 2, Pace: 4})
	most := 0
	for until := 0.1; until <= 40; until += 0.1 {
		nw.RunUntil(until)
		most = max(most, nw.Engine().Pending())
	}
	if most > 8 {
		t.Fatalf("paced flow left up to %d events pending, want at most 8", most)
	}
}
