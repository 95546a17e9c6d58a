package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// IP protocol numbers used by the Duet dataplane.
const (
	ProtoICMP uint8 = 1
	ProtoIPIP uint8 = 4 // IP-in-IP encapsulation (RFC 2003)
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// HeaderLen is the length of the fixed IPv4 header we emit (no options).
const HeaderLen = 20

// Errors returned by the decode path.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadVersion  = errors.New("packet: not an IPv4 packet")
	ErrBadChecksum = errors.New("packet: bad IPv4 header checksum")
	ErrBadIHL      = errors.New("packet: bad IPv4 IHL")
)

// IPv4 is a decoded IPv4 header. The struct is reused across packets on the
// hot path (DecodeFromBytes overwrites every field), mirroring gopacket's
// DecodingLayer pattern so steady-state forwarding does not allocate.
type IPv4 struct {
	Version  uint8
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	Length   uint16 // total length including header
	ID       uint16
	Flags    uint8
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      Addr
	Dst      Addr

	payload []byte // view into the decode buffer; valid until next decode
}

// Payload returns the bytes following the IPv4 header from the most recent
// DecodeFromBytes call. The slice aliases the decode buffer.
//
//duet:hotpath
func (h *IPv4) Payload() []byte { return h.payload }

// DecodeFromBytes parses an IPv4 header from data. It validates the version,
// IHL, total length and header checksum.
//
//duet:hotpath
func (h *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < HeaderLen {
		return ErrTruncated
	}
	vihl := data[0]
	h.Version = vihl >> 4
	if h.Version != 4 {
		return ErrBadVersion
	}
	h.IHL = vihl & 0x0f
	if h.IHL < 5 {
		return ErrBadIHL
	}
	hlen := int(h.IHL) * 4
	if len(data) < hlen {
		return ErrTruncated
	}
	h.TOS = data[1]
	h.Length = binary.BigEndian.Uint16(data[2:4])
	if int(h.Length) < hlen || int(h.Length) > len(data) {
		return ErrTruncated
	}
	h.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = binary.BigEndian.Uint16(data[10:12])
	h.Src = Addr(binary.BigEndian.Uint32(data[12:16]))
	h.Dst = Addr(binary.BigEndian.Uint32(data[16:20]))
	if Checksum(data[:hlen]) != 0 {
		return ErrBadChecksum
	}
	h.payload = data[hlen:h.Length]
	return nil
}

// SerializeTo writes the header into buf (which must be at least HeaderLen
// bytes), computing the checksum. Options are not emitted; IHL is forced to
// 5. It returns the number of bytes written.
func (h *IPv4) SerializeTo(buf []byte) (int, error) {
	if len(buf) < HeaderLen {
		//duet:allow hotpath error construction on the short-buffer reject path only
		return 0, fmt.Errorf("packet: serialize buffer too short: %d < %d", len(buf), HeaderLen)
	}
	buf[0] = 4<<4 | 5
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:4], h.Length)
	binary.BigEndian.PutUint16(buf[4:6], h.ID)
	binary.BigEndian.PutUint16(buf[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	buf[8] = h.TTL
	buf[9] = h.Protocol
	buf[10], buf[11] = 0, 0
	binary.BigEndian.PutUint32(buf[12:16], uint32(h.Src))
	binary.BigEndian.PutUint32(buf[16:20], uint32(h.Dst))
	cs := Checksum(buf[:HeaderLen])
	binary.BigEndian.PutUint16(buf[10:12], cs)
	h.Checksum = cs
	return HeaderLen, nil
}

// Checksum computes the standard ones-complement Internet checksum over b.
// A buffer with a correct embedded checksum sums to zero. It adds big-endian
// 32-bit words into 64 bits and folds once at the end: the ones-complement sum
// is the same whatever the word width (RFC 1071 §2), and a 20-byte header is
// five loads.
func Checksum(b []byte) uint16 {
	var sum uint64
	if len(b) == HeaderLen {
		sum = uint64(binary.BigEndian.Uint32(b[0:4])) + uint64(binary.BigEndian.Uint32(b[4:8])) +
			uint64(binary.BigEndian.Uint32(b[8:12])) + uint64(binary.BigEndian.Uint32(b[12:16])) +
			uint64(binary.BigEndian.Uint32(b[16:20]))
	} else {
		for ; len(b) >= 4; b = b[4:] {
			sum += uint64(binary.BigEndian.Uint32(b))
		}
		if len(b) >= 2 {
			sum += uint64(binary.BigEndian.Uint16(b))
			b = b[2:]
		}
		if len(b) == 1 {
			sum += uint64(b[0]) << 8
		}
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
