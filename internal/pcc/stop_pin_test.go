package pcc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
	"dui/internal/tcpflow"
)

// stopPinDigest is the sha256 of stopMidMITrace, recorded while every
// paced send was its own closure. It pins what the bound send callback
// must reproduce: the data sends on the wire, the finalized records, and
// that Stop in the middle of a monitor interval sends nothing further.
const stopPinDigest = "ada33f9b682644faefe8c49a095430e2ef2c85eb363fb1c120db0d09a3af0545"

// Stop halts the flow.
func (s *Sender) Stop() { s.stopped = true }

func stopMidMITrace() string {
	nw := netsim.New()
	h1 := nw.AddHost("h1", packet.MustParseAddr("10.0.0.1"))
	r := nw.AddRouter("r")
	h2 := nw.AddHost("h2", packet.MustParseAddr("10.0.1.1"))
	up := nw.Connect(h1, r, 2e6, 0.01, 40)
	nw.Connect(r, h2, 1e6, 0.01, 20)
	nw.ComputeRoutes()
	e1, e2 := tcpflow.NewEndpoint(h1), tcpflow.NewEndpoint(h2)
	key := packet.FlowKey{Src: h1.Addr, Dst: h2.Addr, SrcPort: 5000, DstPort: 80, Proto: packet.ProtoTCP}
	s := Start(e1, e2, Config{Key: key, StartRate: 50, MinMI: 0.3}, stats.NewRNG(7))
	out := ""
	nw.SetLinkProbe(func(now float64, kind netsim.LinkEventKind, l *netsim.Link, dir netsim.Direction, p *packet.Packet) {
		if kind == netsim.LinkSent && l == up && dir == netsim.AToB {
			out += fmt.Sprintf("%.12g send seq=%d\n", now, p.TCP.Seq)
		}
	})
	// 4.1 s falls inside a monitor interval, with paced sends still queued.
	nw.Engine().At(4.1, s.Stop)
	nw.RunUntil(10)
	for _, rec := range s.Records() {
		out += fmt.Sprintf("%+v\n", rec)
	}
	out += fmt.Sprintf("sent %d rate %.12g eps %.12g state %v pending %d\n",
		up.Stats(netsim.AToB).Sent, s.rate, s.Eps(), s.State(), nw.Engine().Pending())
	return out
}

func TestStopMidMIPinned(t *testing.T) {
	sum := sha256.Sum256([]byte(stopMidMITrace()))
	if got := hex.EncodeToString(sum[:]); got != stopPinDigest {
		t.Fatalf("stop-mid-MI trace digest %s, pinned %s", got, stopPinDigest)
	}
}
