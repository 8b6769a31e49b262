package audit

import (
	"testing"

	"dui/internal/netsim"
	"dui/internal/packet"
)

// auditedBurst runs a queue-overflowing burst across a link failure on
// lineNet with rec attached.
func auditedBurst(t *testing.T, rec *Recorder) {
	t.Helper()
	nw, h1, h2, links := lineNet(1e5, 0.001, 2)
	a := AttachNetwork(nw, rec)
	for i := 0; i < 5; i++ {
		h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{Seq: uint32(i)}, 1000))
	}
	nw.FailLink(links[0], 0.1)
	nw.RunUntil(10)
	if err := a.CheckDrained(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// Hash folds an event sequence into the digest a Recorder keeps, from the
// retained events: the reference TestDigestRecorderMatchesTrace checks
// every recorder's running digest against.
func Hash(events []Event) uint64 {
	h := uint64(hashOffset)
	for _, ev := range events {
		h = hashEvent(h, ev.T, ev.Kind, ev.Where, ev.Flow)
	}
	return h
}

// A digest recorder keeps no events but folds the same count and Hash a
// retaining recorder computes over its full trace.
func TestDigestRecorderMatchesTrace(t *testing.T) {
	full, digest := NewRecorder(), NewDigestRecorder()
	auditedBurst(t, full)
	auditedBurst(t, digest)
	events := full.Events()
	if len(events) == 0 {
		t.Fatal("audited run recorded no events")
	}
	if digest.Len() != len(events) || full.Len() != len(events) {
		t.Fatalf("Len: digest %d, full %d, want %d", digest.Len(), full.Len(), len(events))
	}
	if want := Hash(events); digest.Hash() != want || full.Hash() != want {
		t.Fatalf("Hash: digest %#x, full %#x, want %#x", digest.Hash(), full.Hash(), want)
	}
	if n := len(digest.Events()); n != 0 {
		t.Fatalf("digest recorder retained %d events", n)
	}
}

// The link name a violation carries is built only when a rule fires; it
// must still name the violating direction.
func TestNetAuditNamesViolatingLink(t *testing.T) {
	netsim.DebugHooks.DisableFailureFlush = true
	defer func() { netsim.DebugHooks.DisableFailureFlush = false }()
	nw, h1, h2, links := lineNet(1e5, 0.001, 0)
	a := AttachNetwork(nw, nil)
	for i := 0; i < 4; i++ {
		h1.Send(packet.NewTCP(h1.Addr, h2.Addr, packet.TCPHeader{}, 1000))
	}
	nw.FailLink(links[0], 0.1)
	nw.RunUntil(2)
	for _, v := range a.Violations() {
		if v.Rule == RuleQueueSurvives {
			if want := "link#0 h1->r1"; v.Where != want {
				t.Fatalf("violation at %q, want %q", v.Where, want)
			}
			return
		}
	}
	t.Fatalf("no %s violation with the failure flush disabled: %v", RuleQueueSurvives, a.Violations())
}
