package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encapsulate wraps inner (a complete IPv4 packet) in an outer IPv4 header
// with the given source and destination — the IP-in-IP operation the HMux
// performs in the switch dataplane and the SMux performs in software
// (paper §3.1, Figure 2). The result is appended to dst and returned, so
// callers can reuse a buffer across packets.
//
//duet:hotpath
func Encapsulate(dst []byte, src, outerDst Addr, inner []byte, ttl uint8) ([]byte, error) {
	total := HeaderLen + len(inner)
	if total > 0xffff {
		//duet:allow hotpath error construction on the oversize reject path only
		return nil, fmt.Errorf("packet: encapsulated packet too large: %d", total)
	}
	outer := IPv4{
		TTL:      ttl,
		Protocol: ProtoIPIP,
		Length:   uint16(total),
		Src:      src,
		Dst:      outerDst,
	}
	off := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	if _, err := outer.SerializeTo(dst[off:]); err != nil {
		return nil, err
	}
	return append(dst, inner...), nil
}

// ErrNotIPIP rejects a packet handed to Decapsulate that is not IP-in-IP.
var ErrNotIPIP = errors.New("packet: not IP-in-IP")

// Decapsulate verifies the outer IP-in-IP header and returns the inner packet
// bytes (aliasing data) together with the decoded outer header. This is the
// host agent's receive-side operation (paper §2.1).
//
//duet:hotpath
func Decapsulate(data []byte) (inner []byte, outer IPv4, err error) {
	if err = outer.DecodeFromBytes(data); err != nil {
		return nil, outer, err
	}
	if outer.Protocol != ProtoIPIP {
		return nil, outer, ErrNotIPIP
	}
	return outer.Payload(), outer, nil
}

// Payload returns what follows the outermost IPv4 header of data, up to the
// header's total length — the inner packet of an IP-in-IP packet — or nil
// when the two length fields do not fit data. It verifies nothing else: it
// is for bytes whose header Parse has accepted, or whose inner packet the
// caller parses next.
//
//duet:hotpath
func Payload(data []byte) []byte {
	if len(data) < HeaderLen {
		return nil
	}
	hlen, total := int(data[0]&0x0f)*4, int(binary.BigEndian.Uint16(data[2:4]))
	if hlen < HeaderLen || total < hlen || total > len(data) {
		return nil
	}
	return data[hlen:total]
}

// BuildUDP constructs a complete IPv4+UDP packet with the given 5-tuple and
// payload. Traffic generators and tests use it; the tuple's Proto field is
// ignored (forced to UDP).
func BuildUDP(t FiveTuple, payload []byte) []byte {
	udpLen := UDPHeaderLen + len(payload)
	total := HeaderLen + udpLen
	buf := make([]byte, total)
	ip := IPv4{
		TTL:      64,
		Protocol: ProtoUDP,
		Length:   uint16(total),
		Src:      t.Src,
		Dst:      t.Dst,
	}
	if _, err := ip.SerializeTo(buf); err != nil {
		panic(err) // buffer is sized correctly by construction
	}
	u := UDP{SrcPort: t.SrcPort, DstPort: t.DstPort, Length: uint16(udpLen)}
	if _, err := u.SerializeTo(buf[HeaderLen:]); err != nil {
		panic(err)
	}
	copy(buf[HeaderLen+UDPHeaderLen:], payload)
	return buf
}

// BuildTCP constructs a complete IPv4+TCP packet with the given 5-tuple,
// flags and payload.
func BuildTCP(t FiveTuple, flags uint8, payload []byte) []byte {
	total := HeaderLen + TCPHeaderLen + len(payload)
	buf := make([]byte, total)
	ip := IPv4{
		TTL:      64,
		Protocol: ProtoTCP,
		Length:   uint16(total),
		Src:      t.Src,
		Dst:      t.Dst,
	}
	if _, err := ip.SerializeTo(buf); err != nil {
		panic(err)
	}
	tcp := TCP{SrcPort: t.SrcPort, DstPort: t.DstPort, Flags: flags, Window: 65535}
	if _, err := tcp.SerializeTo(buf[HeaderLen:]); err != nil {
		panic(err)
	}
	copy(buf[HeaderLen+TCPHeaderLen:], payload)
	return buf
}

// RewriteDst rewrites the destination address of the outermost IPv4 header
// in place and updates its checksum incrementally. The host agent uses it
// when translating a decapsulated VIP packet to the local DIP. The caller has
// verified the header; only ErrTruncated, for fewer than HeaderLen bytes, is
// reported.
//
//duet:hotpath
func RewriteDst(data []byte, dst Addr) error {
	return rewriteAddr(data, 16, dst)
}

// RewriteSrc is RewriteDst for the source address. The host agent uses it
// for direct server return: responses leave the DIP carrying the VIP as
// their source.
//
//duet:hotpath
func RewriteSrc(data []byte, src Addr) error {
	return rewriteAddr(data, 12, src)
}

// rewriteAddr replaces the address at data[off:off+4] and updates the header
// checksum by RFC 1624 eqn. 3, HC' = ~(~HC + ~m + m'), one 16-bit word of
// the address at a time. It touches those six bytes and no other, so it
// rewrites a header with options as well as one without.
//
//duet:hotpath
func rewriteAddr(data []byte, off int, a Addr) error {
	if len(data) < HeaderLen {
		return ErrTruncated
	}
	old := binary.BigEndian.Uint32(data[off:])
	sum := uint32(^binary.BigEndian.Uint16(data[10:12])) +
		uint32(^uint16(old>>16)) + uint32(^uint16(old)) +
		uint32(a>>16) + uint32(uint16(a))
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	if sum == 0 {
		// Every term was zero: the sum is +0, which a full re-serialisation
		// writes as -0, the checksum 0x0000.
		sum = 0xffff
	}
	binary.BigEndian.PutUint32(data[off:], uint32(a))
	binary.BigEndian.PutUint16(data[10:12], ^uint16(sum))
	return nil
}
