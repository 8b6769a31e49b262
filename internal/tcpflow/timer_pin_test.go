package tcpflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dui/internal/netsim"
	"dui/internal/packet"
)

// rtoPinDigest is the sha256 of rtoTimerTrace, recorded while every RTO
// arm was its own closure. It pins the retransmission-timer semantics
// the bound timer callback must reproduce exactly.
const rtoPinDigest = "01452cfba508e205ddc1a5cf7992096dcaf9f30a74bbfddb030cf83cc1d4bff9"

// Stop ends the flow; no further segments or timers fire.
func (s *Sender) Stop() {
	s.stopped = true
	s.retireRTO()
}

// rtoTimerTrace runs two flows through a mid-transfer path failure: the
// RTO shrinks from rtoInit to the RTT-derived value between arms (so a
// later arm fires before an earlier, stale one), timeouts back off while
// the path is down, one flow completes (cancelling its timers) and the
// other is stopped mid-flight. It returns every data send and ACK
// delivery with its time, plus both flows' final stats and the pending
// event count.
func rtoTimerTrace() string {
	nw, e1, e2, links := pair(1e6, 0.005, 8)
	out := ""
	nw.SetLinkProbe(func(now float64, kind netsim.LinkEventKind, l *netsim.Link, dir netsim.Direction, p *packet.Packet) {
		if p == nil || p.TCP == nil || (kind != netsim.LinkSent && kind != netsim.LinkDelivered) {
			return
		}
		out += fmt.Sprintf("%.12g %s l%d d%d %d:%d seq=%d ack=%d\n", now, kind, l.Index(), dir,
			p.TCP.SrcPort, p.TCP.DstPort, p.TCP.Seq, p.TCP.Ack)
	})
	done := Start(e1, e2, Config{Key: flowKey(e1, e2, 2000), TotalBytes: 120 * 1460, AIMD: true})
	stopped := Start(e1, e2, Config{Key: flowKey(e1, e2, 2001), Pace: 40})
	completedAt := -1.0
	done.OnComplete = func(now float64) { completedAt = now }
	nw.FailLink(links[1], 0.3)
	nw.Engine().At(1.9, func() { links[1].SetUp(true) })
	nw.Engine().At(4.25, stopped.Stop)
	nw.RunUntil(12)
	out += fmt.Sprintf("done %+v completed=%.12g\n", done.Stats(), completedAt)
	out += fmt.Sprintf("stopped %+v\n", stopped.Stats())
	out += fmt.Sprintf("pending %d\n", nw.Engine().Pending())
	return out
}

func TestRTOTimersPinned(t *testing.T) {
	sum := sha256.Sum256([]byte(rtoTimerTrace()))
	if got := hex.EncodeToString(sum[:]); got != rtoPinDigest {
		t.Fatalf("RTO timer trace digest %s, pinned %s", got, rtoPinDigest)
	}
}
