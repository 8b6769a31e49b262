package packet

import "fmt"

// Proto identifies the transport protocol, with the standard IP protocol
// numbers.
type Proto uint8

// Transport protocol numbers (IANA).
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// TCPHeader carries the TCP fields the simulated systems read. Blink
// watches Seq for retransmissions; PCC and the TCP model use Seq/Ack for
// loss accounting.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// UDPHeader carries the UDP ports.
type UDPHeader struct {
	SrcPort, DstPort uint16
}

// ICMP message types used by the traceroute engine.
const (
	ICMPEchoReply    uint8 = 0
	ICMPTimeExceeded uint8 = 11
	ICMPEchoRequest  uint8 = 8
)

// ICMPHeader models the ICMP messages traceroute exchanges. For
// TimeExceeded replies, OrigSrc/OrigDst/OrigTTL echo the expired probe's
// header, which is how traceroute matches replies to probes.
type ICMPHeader struct {
	Type    uint8
	ID, Seq uint16
	// Quoted original header for TimeExceeded, per RFC 792.
	OrigSrc, OrigDst Addr
	OrigTTL          uint8
}

// Packet is one simulated packet. Exactly one of TCP/UDP/ICMP is non-nil,
// matching Proto. Size is the on-wire size in bytes (headers + payload) and
// drives link serialization delay; Payload is optional application data.
type Packet struct {
	ID       uint64 // unique per simulation run, for tracing
	Src, Dst Addr
	TTL      uint8
	Proto    Proto
	Size     int
	TCP      *TCPHeader
	UDP      *UDPHeader
	ICMP     *ICMPHeader
	Payload  []byte

	// box is the allocation of a recyclable packet (NewRecyclable) and
	// nil on every other packet. A struct copy carries the pointer but is
	// not box's own packet, so Recyclable is false on every copy.
	box *tcpPacket
}

// DefaultTTL is the initial TTL for ordinary (non-traceroute) packets.
const DefaultTTL = 64

// NewTCP returns a TCP packet with sensible defaults (TTL 64).
func NewTCP(src, dst Addr, h TCPHeader, size int) *Packet {
	return newTCP(Packet{Src: src, Dst: dst, TTL: DefaultTTL, Proto: ProtoTCP, Size: size}, h)
}

// tcpPacket allocates a TCP packet and its header as one object, halving
// the allocations of the TCP hot path; the packet's TCP field points at h.
type tcpPacket struct {
	p Packet
	h TCPHeader
}

func newTCP(p Packet, h TCPHeader) *Packet {
	b := &tcpPacket{p: p, h: h}
	b.p.TCP = &b.h
	b.p.box = nil
	return &b.p
}

// NewRecyclable returns a zero packet that its owner may later overwrite
// with ResetTCP and issue again, however often: netsim's per-network free
// list is built from these. Copies of it — Clone, or a plain *p — are
// ordinary packets.
func NewRecyclable() *Packet {
	b := &tcpPacket{}
	b.p.TCP = &b.h
	b.p.box = b
	return &b.p
}

// Recyclable reports whether p came from NewRecyclable.
func (p *Packet) Recyclable() bool { return p.box != nil && &p.box.p == p }

// ResetTCP overwrites a recyclable packet with v and its TCP header with h,
// and points p.TCP back at the packet's own header, wherever a holder may
// have pointed it since. v's own TCP field is ignored. So
// p.ResetTCP(Packet{Src: src, Dst: dst, TTL: DefaultTTL, Proto: ProtoTCP,
// Size: size}, h) leaves p equal, field by field, to NewTCP(src, dst, h,
// size). It panics on a packet NewRecyclable did not return.
func (p *Packet) ResetTCP(v Packet, h TCPHeader) {
	if !p.Recyclable() {
		panic("packet: ResetTCP of a packet that is not recyclable")
	}
	b := p.box
	b.p, b.h = v, h
	b.p.TCP, b.p.box = &b.h, b
}

// NewUDP returns a UDP packet with sensible defaults.
func NewUDP(src, dst Addr, h UDPHeader, size int) *Packet {
	return &Packet{Src: src, Dst: dst, TTL: DefaultTTL, Proto: ProtoUDP, Size: size, UDP: &h}
}

// NewICMP returns an ICMP packet.
func NewICMP(src, dst Addr, h ICMPHeader, size int) *Packet {
	return &Packet{Src: src, Dst: dst, TTL: DefaultTTL, Proto: ProtoICMP, Size: size, ICMP: &h}
}

// Clone returns a deep copy, used by MitM taps that modify packets and by
// retransmission logic. The copy is never recyclable.
func (p *Packet) Clone() *Packet {
	var c *Packet
	if p.TCP != nil && p.UDP == nil && p.ICMP == nil {
		c = newTCP(*p, *p.TCP)
	} else {
		cp := *p
		cp.box = nil
		c = &cp
		if p.TCP != nil {
			h := *p.TCP
			c.TCP = &h
		}
		if p.UDP != nil {
			h := *p.UDP
			c.UDP = &h
		}
		if p.ICMP != nil {
			h := *p.ICMP
			c.ICMP = &h
		}
	}
	if p.Payload != nil {
		c.Payload = append([]byte(nil), p.Payload...)
	}
	return c
}

// FlowKey is the classic 5-tuple. It is comparable and therefore usable as
// a map key; FastHash gives the data-plane hash Blink's flow selector uses.
type FlowKey struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            Proto
}

// Flow returns the packet's 5-tuple. Port fields are zero for ICMP.
func (p *Packet) Flow() FlowKey {
	k := FlowKey{Src: p.Src, Dst: p.Dst, Proto: p.Proto}
	switch {
	case p.TCP != nil:
		k.SrcPort, k.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return k
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		Src: k.Dst, Dst: k.Src,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
		Proto: k.Proto,
	}
}

// FNV-1a 64-bit parameters (FIPS-less classic FNV, as in hash/fnv).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// FastHash returns a 64-bit hash of the 5-tuple: FNV-1a over the header
// bytes followed by a murmur-style avalanche finalizer (raw FNV's low bits
// correlate under structured inputs, and data planes index small cell
// arrays with exactly those bits). It is *not* symmetric: A→B and B→A hash
// differently, which matches Blink's data-plane hash of the packet's own
// header fields.
//
// The FNV-1a loop is unrolled as straight-line arithmetic over the 13
// big-endian header bytes — no fnv.New64a() allocation, no hash.Hash64
// interface dispatch — and produces bit-identical values to feeding the
// same bytes through hash/fnv (TestFastHashMatchesReference pins this, so
// the optimization can never silently move flows between cells).
func (k FlowKey) FastHash() uint64 {
	h := fnvOffset64
	h = (h ^ uint64(byte(k.Src>>24))) * fnvPrime64
	h = (h ^ uint64(byte(k.Src>>16))) * fnvPrime64
	h = (h ^ uint64(byte(k.Src>>8))) * fnvPrime64
	h = (h ^ uint64(byte(k.Src))) * fnvPrime64
	h = (h ^ uint64(byte(k.Dst>>24))) * fnvPrime64
	h = (h ^ uint64(byte(k.Dst>>16))) * fnvPrime64
	h = (h ^ uint64(byte(k.Dst>>8))) * fnvPrime64
	h = (h ^ uint64(byte(k.Dst))) * fnvPrime64
	h = (h ^ uint64(byte(k.SrcPort>>8))) * fnvPrime64
	h = (h ^ uint64(byte(k.SrcPort))) * fnvPrime64
	h = (h ^ uint64(byte(k.DstPort>>8))) * fnvPrime64
	h = (h ^ uint64(byte(k.DstPort))) * fnvPrime64
	h = (h ^ uint64(byte(k.Proto))) * fnvPrime64
	return fmix64(h)
}

// fmix64 is the 64-bit finalizer from MurmurHash3: a full-avalanche
// bijection, so it cannot introduce collisions.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// String renders "proto src:sport>dst:dport".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// String renders a one-line summary of the packet for logs and debugging.
func (p *Packet) String() string {
	switch {
	case p.TCP != nil:
		return fmt.Sprintf("tcp %s:%d>%s:%d seq=%d ack=%d flags=%#x len=%d ttl=%d",
			p.Src, p.TCP.SrcPort, p.Dst, p.TCP.DstPort, p.TCP.Seq, p.TCP.Ack, p.TCP.Flags, p.Size, p.TTL)
	case p.UDP != nil:
		return fmt.Sprintf("udp %s:%d>%s:%d len=%d ttl=%d",
			p.Src, p.UDP.SrcPort, p.Dst, p.UDP.DstPort, p.Size, p.TTL)
	case p.ICMP != nil:
		// Echo and TTL-exceeded-in-transit, the only messages modelled,
		// both carry code 0.
		return fmt.Sprintf("icmp %s>%s type=%d code=0 ttl=%d",
			p.Src, p.Dst, p.ICMP.Type, p.TTL)
	default:
		return fmt.Sprintf("%s %s>%s len=%d ttl=%d", p.Proto, p.Src, p.Dst, p.Size, p.TTL)
	}
}
