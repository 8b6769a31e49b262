package packet

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// referenceFastHash is the historical implementation: hash/fnv over the 13
// big-endian header bytes, then the murmur finalizer.
func referenceFastHash(k FlowKey) uint64 {
	h := fnv.New64a()
	var buf [13]byte
	be32(buf[0:], uint32(k.Src))
	be32(buf[4:], uint32(k.Dst))
	be16(buf[8:], k.SrcPort)
	be16(buf[10:], k.DstPort)
	buf[12] = byte(k.Proto)
	h.Write(buf[:])
	return fmix64(h.Sum64())
}

// TestFastHashMatchesReference pins the inlined FNV-1a arithmetic to the
// hash/fnv + fmix64 reference on randomized keys. Any divergence would
// silently move flows between Blink's selector cells and change every
// trace-driven curve, so this must hold bit for bit.
func TestFastHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := []FlowKey{
		{},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP},
		{Src: ^Addr(0), Dst: ^Addr(0), SrcPort: 65535, DstPort: 65535, Proto: 255},
	}
	for i := 0; i < 100000; i++ {
		keys = append(keys, FlowKey{
			Src:     Addr(rng.Uint32()),
			Dst:     Addr(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()),
			DstPort: uint16(rng.Uint32()),
			Proto:   Proto(rng.Uint32()),
		})
	}
	for _, k := range keys {
		if got, want := k.FastHash(), referenceFastHash(k); got != want {
			t.Fatalf("FastHash(%+v) = %#x, reference = %#x", k, got, want)
		}
	}
}

// TestFastHashDirectional re-pins the asymmetry FastHash documents.
func TestFastHashDirectional(t *testing.T) {
	k := FlowKey{Src: 10, Dst: 20, SrcPort: 1000, DstPort: 443, Proto: ProtoTCP}
	if k.FastHash() == k.Reverse().FastHash() {
		t.Fatal("FastHash must not be symmetric")
	}
}

func be32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func be16(b []byte, v uint16) {
	b[0], b[1] = byte(v>>8), byte(v)
}
