package tcpflow_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"dui/internal/dapper"
	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/tcpflow"
)

// pacingPinDigest is the sha256 of pacingTrace, recorded while every
// pacing-gate hit scheduled its own wake-up. It pins the paced sender's
// wire behaviour that the one-wake-up-per-instant rule must reproduce.
const pacingPinDigest = "39266e06bd1e29ef66e78eafd7bb3d6a58b160bf7c2c1de600dffc776180ed1c"

// pacedNet is h1 -- r -- h2 with a probe that records every TCP packet
// entering or leaving a link: its time, link, direction, ports, seq, ack
// and advertised window.
type pacedNet struct {
	nw    *netsim.Network
	src   *tcpflow.Endpoint
	dst   *tcpflow.Endpoint
	links []*netsim.Link
	key   packet.FlowKey
}

func newPacedNet(delay float64, out *strings.Builder) *pacedNet {
	nw := netsim.New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	r := nw.AddRouter("r")
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	l1 := nw.Connect(h1, r, 1e6, delay, 8)
	l2 := nw.Connect(r, h2, 1e6, delay, 8)
	nw.ComputeRoutes()
	nw.SetLinkProbe(func(now float64, kind netsim.LinkEventKind, l *netsim.Link, dir netsim.Direction, p *packet.Packet) {
		if p == nil || p.TCP == nil || (kind != netsim.LinkSent && kind != netsim.LinkDelivered) {
			return
		}
		fmt.Fprintf(out, "%.12g %s l%d d%d %d:%d seq=%d ack=%d win=%d\n", now, kind, l.Index(), dir,
			p.TCP.SrcPort, p.TCP.DstPort, p.TCP.Seq, p.TCP.Ack, p.TCP.Window)
	})
	return &pacedNet{
		nw: nw, src: tcpflow.NewEndpoint(h1), dst: tcpflow.NewEndpoint(h2),
		links: []*netsim.Link{l1, l2},
		key: packet.FlowKey{
			Src: h1.Addr, Dst: h2.Addr, SrcPort: 4000, DstPort: 80, Proto: packet.ProtoTCP,
		},
	}
}

func (pn *pacedNet) start(cfg tcpflow.Config) *tcpflow.Sender {
	cfg.Key = pn.key
	return tcpflow.Start(pn.src, pn.dst, cfg)
}

// pacingTrace runs five paced scenarios, each flow on its own network, and
// returns every data send and ACK delivery plus each flow's final stats:
//
//   - the Blink failover flow's shape (Pace 4, Window 2) for 40 s, its
//     ACKs landing inside the 250 ms pacing gaps;
//   - the same flow through a link failure at 3.1 s, mid-gap: the window
//     fills, the pending wake-up finds it closed and dies, and the ACK
//     that follows the repair at 5 s restarts pacing;
//   - a TotalBytes completion (not a whole number of segments);
//   - Stop at 2.6 s, mid-gap, with a wake-up pending;
//   - DAPPER's sender-limited flow (Pace 20, Window 40) behind
//     BlameReceiver, which pins the advertised window at one MSS, and
//     behind BlameSender, which raises a 8-segment receive window to
//     64 KiB on the first ACK.
func pacingTrace() string {
	var out strings.Builder
	run := func(name string, delay, until float64, cfg tcpflow.Config, setup func(*pacedNet, *tcpflow.Sender)) {
		fmt.Fprintf(&out, "== %s\n", name)
		pn := newPacedNet(delay, &out)
		s := pn.start(cfg)
		completedAt := -1.0
		s.OnComplete = func(now float64) { completedAt = now }
		if setup != nil {
			setup(pn, s)
		}
		pn.nw.RunUntil(until)
		fmt.Fprintf(&out, "stats %+v completed=%.12g\n", s.Stats(), completedAt)
	}
	blinkFlow := tcpflow.Config{Window: 2, Pace: 4}
	run("acks-in-gaps", 0.005, 40, blinkFlow, nil)
	run("fail-mid-gap", 0.005, 15, blinkFlow, func(pn *pacedNet, _ *tcpflow.Sender) {
		pn.nw.FailLink(pn.links[1], 3.1)
		pn.nw.Engine().At(5, func() { pn.links[1].SetUp(true) })
	})
	run("total-bytes", 0.005, 20, tcpflow.Config{Window: 2, Pace: 4, TotalBytes: 30*1460 + 100}, nil)
	run("stop-mid-gap", 0.005, 10, blinkFlow, func(pn *pacedNet, s *tcpflow.Sender) {
		pn.nw.Engine().At(2.6, s.Stop)
	})
	dapperFlow := tcpflow.Config{Window: 40, Pace: 20}
	run("blame-receiver", 0.01, 10, dapperFlow, func(pn *pacedNet, _ *tcpflow.Sender) {
		(&dapper.BlameReceiver{}).Attach(pn.links[1])
	})
	rcvLimited := dapperFlow
	rcvLimited.RcvWindow = 8 * 1460
	run("blame-sender", 0.01, 10, rcvLimited, func(pn *pacedNet, _ *tcpflow.Sender) {
		(&dapper.BlameSender{}).Attach(pn.links[1])
	})
	return out.String()
}

func TestPacingPinned(t *testing.T) {
	sum := sha256.Sum256([]byte(pacingTrace()))
	if got := hex.EncodeToString(sum[:]); got != pacingPinDigest {
		t.Fatalf("pacing trace digest %s, pinned %s", got, pacingPinDigest)
	}
}
