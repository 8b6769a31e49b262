package packet

import (
	"testing"
)

func TestParseAddrRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "10.0.1.2", "255.255.255.255", "192.168.0.1"} {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Fatalf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "-1.0.0.0"} {
		if _, err := ParseAddr(s); err == nil {
			t.Fatalf("ParseAddr(%q) should fail", s)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParseAddr("10.1.255.3")) {
		t.Fatal("address in prefix not matched")
	}
	if p.Contains(MustParseAddr("10.2.0.0")) {
		t.Fatal("address outside prefix matched")
	}
	if p.String() != "10.1.0.0/16" {
		t.Fatalf("prefix string = %s", p)
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseAddr("255.1.2.3")) {
		t.Fatal("default route must contain everything")
	}
}

func TestPrefixNormalizesHostBits(t *testing.T) {
	p := MustParsePrefix("10.1.2.3/16")
	if p.Addr != MustParseAddr("10.1.0.0") {
		t.Fatalf("host bits not masked: %s", p.Addr)
	}
	if p.Nth(5) != MustParseAddr("10.1.0.5") {
		t.Fatalf("Nth = %s", p.Nth(5))
	}
}

func TestPrefixErrors(t *testing.T) {
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/x", "bad/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Fatalf("ParsePrefix(%q) should fail", s)
		}
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	r := k.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SrcPort != 20 || r.DstPort != 10 {
		t.Fatalf("reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse must be identity")
	}
}

func TestFastHashDistinguishesDirection(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	if k.FastHash() == k.Reverse().FastHash() {
		t.Fatal("hash must be direction-sensitive")
	}
}

func TestFastHashDeterministicAndSpread(t *testing.T) {
	// Hash determinism plus a coarse uniformity check over 64 cells — the
	// property Blink's flow selector relies on.
	counts := make([]int, 64)
	for i := 0; i < 6400; i++ {
		k := FlowKey{
			Src: Addr(0x0a000000 + i), Dst: 0x0b000001,
			SrcPort: uint16(1024 + i%50000), DstPort: 80, Proto: ProtoTCP,
		}
		if k.FastHash() != k.FastHash() {
			t.Fatal("hash not deterministic")
		}
		counts[k.FastHash()%64]++
	}
	for c, n := range counts {
		if n < 50 || n > 150 {
			t.Fatalf("cell %d has %d flows; hash badly skewed", c, n)
		}
	}
}

func TestPacketFlow(t *testing.T) {
	p := NewTCP(1, 2, TCPHeader{SrcPort: 10, DstPort: 20, Seq: 5}, 100)
	k := p.Flow()
	if k.Proto != ProtoTCP || k.SrcPort != 10 || k.DstPort != 20 {
		t.Fatalf("flow = %+v", k)
	}
	u := NewUDP(1, 2, UDPHeader{SrcPort: 7, DstPort: 9}, 64)
	if u.Flow().SrcPort != 7 {
		t.Fatal("udp flow ports")
	}
	i := NewICMP(1, 2, ICMPHeader{Type: ICMPEchoRequest}, 28)
	if got := i.Flow(); got.SrcPort != 0 || got.DstPort != 0 {
		t.Fatal("icmp flow must have zero ports")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := NewTCP(1, 2, TCPHeader{Seq: 5}, 100)
	p.Payload = []byte{1, 2, 3}
	c := p.Clone()
	c.TCP.Seq = 99
	c.Payload[0] = 42
	if p.TCP.Seq != 5 || p.Payload[0] != 1 {
		t.Fatal("clone shares state with original")
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" || ProtoICMP.String() != "icmp" {
		t.Fatal("proto names")
	}
	if Proto(99).String() != "proto(99)" {
		t.Fatal("unknown proto name")
	}
}

func TestPacketString(t *testing.T) {
	p := NewTCP(MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2"), TCPHeader{SrcPort: 1, DstPort: 2, Seq: 3}, 40)
	if s := p.String(); s == "" {
		t.Fatal("empty string")
	}
}

// TestRecyclable pins the recyclable mark: only the packet NewRecyclable
// returned carries it, never a Clone or a struct copy, and ResetTCP
// refuses any other packet.
func TestRecyclable(t *testing.T) {
	p := NewRecyclable()
	h := TCPHeader{SrcPort: 1, DstPort: 2, Seq: 3}
	p.ResetTCP(Packet{Src: 1, Dst: 2, TTL: DefaultTTL, Proto: ProtoTCP, Size: 40, TCP: &TCPHeader{Seq: 9}}, h)
	want := NewTCP(1, 2, h, 40)
	if !p.Recyclable() || *p.TCP != *want.TCP || p.Src != want.Src || p.Size != want.Size || p.TTL != want.TTL {
		t.Fatalf("reset packet %v, want %v", p, want)
	}
	cp := *p
	if p.Clone().Recyclable() || (&cp).Recyclable() || want.Recyclable() {
		t.Fatal("a copy or a NewTCP packet is recyclable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ResetTCP of a copy did not panic")
		}
	}()
	cp.ResetTCP(Packet{}, h)
}
