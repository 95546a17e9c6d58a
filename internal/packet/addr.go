// Package packet implements the byte-level packet model used by the Duet
// dataplane: IPv4 headers, IP-in-IP encapsulation, and just enough TCP/UDP
// to carry the 5-tuple that ECMP hashing operates on.
//
// The decode path follows the gopacket DecodingLayer idiom: callers hold
// preallocated header structs and call DecodeFromBytes, so steady-state
// forwarding performs no allocations.
package packet

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. It is comparable (usable as a
// map key) and cheap to hash, which matters because every table in the HMux
// and SMux dataplanes is keyed by it.
type Addr uint32

// MustParseAddr parses a dotted-quad IPv4 address and panics on error.
// Intended for tests, examples and static configuration.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseAddr parses a dotted-quad IPv4 address: four fields separated by
// dots, each one or more decimal digits after an optional sign, valued 0–255
// — what strconv.Atoi accepts in that range, so leading zeros and "-0" pass.
// It allocates only to report an error.
func ParseAddr(s string) (Addr, error) {
	var a uint32
	i := 0
	for field := 0; field < 4; field++ {
		if field > 0 {
			if i == len(s) || s[i] != '.' {
				return 0, errAddr(s)
			}
			i++
		}
		neg := i < len(s) && s[i] == '-'
		if neg || i < len(s) && s[i] == '+' {
			i++
		}
		digits, v := i, 0
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if v <= 255 { // past 255 the field is refused whatever follows
				v = v*10 + int(s[i]-'0')
			}
		}
		if i == digits || v > 255 || neg && v != 0 {
			return 0, errAddr(s)
		}
		a = a<<8 | uint32(v)
	}
	if i != len(s) {
		return 0, errAddr(s)
	}
	return Addr(a), nil
}

func errAddr(s string) error { return fmt.Errorf("packet: invalid IPv4 address %q", s) }

// AddrFrom4 builds an Addr from four octets.
//
//duet:hotpath
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four octets of the address in network order.
func (a Addr) Octets() (o0, o1, o2, o3 byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	o0, o1, o2, o3 := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o0, o1, o2, o3)
}

// IsZero reports whether the address is the zero address 0.0.0.0.
func (a Addr) IsZero() bool { return a == 0 }

// Prefix is an IPv4 CIDR prefix. Routing tables (see internal/bgp) match
// packets against prefixes with longest-prefix-match semantics; Duet relies
// on /32 VIP routes from HMuxes being preferred over the shorter aggregate
// prefixes announced by SMuxes.
type Prefix struct {
	Addr Addr
	Bits int // prefix length, 0..32
}

// PrefixFrom returns the prefix of the given length containing addr,
// with the host bits zeroed.
//
//duet:hotpath
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	return Prefix{Addr: addr & Mask(bits), Bits: bits}
}

// HostPrefix returns the /32 prefix for addr.
func HostPrefix(addr Addr) Prefix { return Prefix{Addr: addr, Bits: 32} }

// MustParsePrefix parses "a.b.c.d/len" and panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (Prefix, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("packet: invalid prefix %q", s)
	}
	addr, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[i+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("packet: invalid prefix length in %q", s)
	}
	return PrefixFrom(addr, bits), nil
}

// Mask returns the network mask for a prefix of the given length.
func Mask(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return 0xffffffff
	}
	return Addr(^uint32(0) << (32 - bits))
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}
