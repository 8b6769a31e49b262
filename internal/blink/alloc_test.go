//go:build !race

// Allocation guards: regressions in the zero-allocation hot paths fail
// `go test`, not just benchmarks. Excluded under -race, whose
// instrumentation changes inlining and allocation behavior.

package blink

import (
	"fmt"
	"testing"

	"dui/internal/packet"
)

// bankAllocCases are the two shapes every zero-allocation guard runs on: a
// one-prefix bank (the single-prefix experiments and a one-policy
// Pipeline) and packets round-robining across 64 prefixes (the PoP sweep).
// step is the virtual time between packets and warm the number of
// packets fed before measuring.
var bankAllocCases = []struct {
	prefixes, warm int
	step           float64
}{
	{prefixes: 1, warm: 8192, step: 0.005},
	{prefixes: 64, warm: 32768, step: 0.0005},
}

// TestMonitorBankFeedZeroAllocs pins 0 allocs/op for both entry points,
// MonitorBank.Feed and FeedHashed, on a warm bank: hashing, sampling,
// eviction, sequence tracking, the incremental retransmission count,
// segment slicing, and the bank's observer dispatch must all run without
// touching the heap.
func TestMonitorBankFeedZeroAllocs(t *testing.T) {
	for _, tc := range bankAllocCases {
		t.Run(fmt.Sprintf("prefixes=%d", tc.prefixes), func(t *testing.T) {
			bank := NewMonitorBank(tc.prefixes, Config{})
			pkts := make([]*packet.Packet, 256)
			for i := range pkts {
				pkts[i] = packet.NewTCP(packet.Addr(i+1), Victim.Nth(1), packet.TCPHeader{
					SrcPort: uint16(1000 + i), DstPort: 443, Flags: packet.FlagACK,
				}, 1500)
			}
			hashes := make([]uint64, len(pkts))
			for i, p := range pkts {
				hashes[i] = p.Flow().FastHash()
			}
			now := 0.0
			i := 0
			next := func() (int, *packet.Packet, uint64) {
				j := i % len(pkts)
				p := pkts[j]
				p.TCP.Seq += 1460 // advancing data; exercises seq tracking, no failures
				now += tc.step
				prefix := i % tc.prefixes
				i++
				return prefix, p, hashes[j]
			}
			feed := func() {
				prefix, p, _ := next()
				bank.Feed(prefix, now, p)
			}
			feedHashed := func() {
				prefix, p, h := next()
				bank.FeedHashed(prefix, now, p, h)
			}
			for k := 0; k < tc.warm; k++ {
				feed()
			}
			if avg := testing.AllocsPerRun(10000, feed); avg != 0 {
				t.Fatalf("MonitorBank.Feed allocates %.1f objects/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(10000, feedHashed); avg != 0 {
				t.Fatalf("MonitorBank.FeedHashed allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}

// TestMonitorBankFeedZeroAllocsDuringStorm pins the same guarantee during
// a retransmission storm — every packet repeats its flow's sequence
// number — which is exactly the regime the incremental inference count
// exists for. Inference stays armed but unreachable, so the rare
// failure-record append stays off the measured path.
func TestMonitorBankFeedZeroAllocsDuringStorm(t *testing.T) {
	for _, tc := range bankAllocCases {
		t.Run(fmt.Sprintf("prefixes=%d", tc.prefixes), func(t *testing.T) {
			bank := NewMonitorBank(tc.prefixes, Config{})
			bank.threshold = bank.cfg.Cells + 1
			pkts := make([]*packet.Packet, 256)
			for i := range pkts {
				pkts[i] = packet.NewTCP(packet.Addr(i+1), Victim.Nth(1), packet.TCPHeader{
					SrcPort: uint16(1000 + i), DstPort: 443, Seq: 7300, Flags: packet.FlagACK,
				}, 1500)
			}
			now := 0.0
			i := 0
			feed := func() {
				bank.Feed(i%tc.prefixes, now, pkts[i%len(pkts)]) // constant seq: every data packet retransmits
				now += tc.step
				i++
			}
			for k := 0; k < tc.warm; k++ {
				feed()
			}
			if avg := testing.AllocsPerRun(10000, feed); avg != 0 {
				t.Fatalf("MonitorBank.Feed (storm) allocates %.1f objects/op, want 0", avg)
			}
		})
	}
}
