//go:build !race

// Allocation guards, excluded under -race, whose instrumentation changes
// inlining and allocation behavior.

package audit

import (
	"testing"

	"dui/internal/netsim"
	"dui/internal/packet"
)

// TestNetAuditPassingEventAllocs pins 0 allocs per link event for an
// auditor with a digest recorder once its shadow table has grown: the
// recorder folds the event into its hash, the checks pass, and nothing —
// in particular no link-name string — is built.
func TestNetAuditPassingEventAllocs(t *testing.T) {
	nw, h1, h2, links := lineNet(1e5, 0.001, 2)
	a := AttachNetwork(nw, NewDigestRecorder())
	p := packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{}, 1000)
	a.onLinkEvent(0, netsim.LinkSent, links[2], netsim.BToA, p)
	if avg := testing.AllocsPerRun(1000, func() {
		a.onLinkEvent(0, netsim.LinkDelivered, links[1], netsim.AToB, p)
	}); avg != 0 {
		t.Fatalf("NetAudit link event allocates %.1f objects, want 0", avg)
	}
}
