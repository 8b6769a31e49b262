// Package packet models the packets exchanged in the simulated network:
// IPv4 addressing, TCP/UDP/ICMP headers and 5-tuple flow keys with fast
// hashing. The design follows the layered style of gopacket, reduced to the
// protocols the paper's case studies need.
package packet

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. The simulator uses IPv4
// only; 32-bit addresses keep flow keys comparable and hashing cheap.
type Addr uint32

// MakeAddr builds an address from dotted-quad octets.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad string.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("packet: invalid address %q", s)
	}
	var oct [4]byte
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("packet: invalid address %q", s)
		}
		oct[i] = byte(v)
	}
	return MakeAddr(oct[0], oct[1], oct[2], oct[3]), nil
}

// MustParseAddr is ParseAddr that panics on error, for literals in tests
// and examples.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address as a dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Prefix is an IPv4 prefix (address + mask length). Blink tracks state per
// destination prefix; the simulator assigns hosts to prefixes.
type Prefix struct {
	Addr Addr
	Bits int
}

// ParsePrefix parses "a.b.c.d/len" notation.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("packet: invalid prefix %q", s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[i+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("packet: invalid prefix %q", s)
	}
	return Prefix{Addr: a.mask(bits), Bits: bits}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func (a Addr) mask(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return a
	}
	return a & Addr(^uint32(0)<<(32-bits))
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(a Addr) bool { return a.mask(p.Bits) == p.Addr }

// Nth returns the n-th address within the prefix (n=0 is the network
// address). It does not check overflow beyond the prefix size.
func (p Prefix) Nth(n uint32) Addr { return p.Addr + Addr(n) }

// String renders "a.b.c.d/len".
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }
