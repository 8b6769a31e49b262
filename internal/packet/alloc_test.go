//go:build !race

// Allocation guards: regressions in the zero-allocation hot paths fail
// `go test`, not just benchmarks. Excluded under -race, whose
// instrumentation changes inlining and allocation behavior.

package packet

import "testing"

var hashSink uint64

func TestFastHashZeroAllocs(t *testing.T) {
	k := FlowKey{Src: 0x14000001, Dst: 0x0a090001, SrcPort: 1234, DstPort: 443, Proto: ProtoTCP}
	if avg := testing.AllocsPerRun(1000, func() {
		hashSink = k.FastHash()
	}); avg != 0 {
		t.Fatalf("FlowKey.FastHash allocates %.1f objects/op, want 0", avg)
	}
}

var pktSink *Packet

// TestTCPPacketOneAlloc pins the fused TCP allocation: NewTCP and Clone of
// a TCP packet each allocate the packet and its header as one object.
func TestTCPPacketOneAlloc(t *testing.T) {
	h := TCPHeader{SrcPort: 1234, DstPort: 80, Seq: 7, Flags: FlagACK}
	if avg := testing.AllocsPerRun(1000, func() {
		pktSink = NewTCP(0x0a000001, 0x0a000002, h, 1500)
	}); avg != 1 {
		t.Fatalf("NewTCP allocates %.1f objects/op, want 1", avg)
	}
	p := NewTCP(0x0a000001, 0x0a000002, h, 1500)
	if avg := testing.AllocsPerRun(1000, func() {
		pktSink = p.Clone()
	}); avg != 1 {
		t.Fatalf("Clone of a TCP packet allocates %.1f objects/op, want 1", avg)
	}
}
