package packet

import (
	"encoding/binary"
	"fmt"
)

// FiveTuple identifies a transport connection. Both HMux and SMux hash the
// same 5-tuple with the same function so that a connection keeps mapping to
// the same DIP as its VIP migrates between muxes (paper §3.3.1).
type FiveTuple struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// Reverse returns the tuple of the reverse direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Src: t.Dst, Dst: t.Src, SrcPort: t.DstPort, DstPort: t.SrcPort, Proto: t.Proto}
}

// String renders "proto src:sport->dst:dport".
func (t FiveTuple) String() string {
	return fmt.Sprintf("%d %s:%d->%s:%d", t.Proto, t.Src, t.SrcPort, t.Dst, t.DstPort)
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16

	payload []byte
}

// decodeFromBytes parses a UDP header. Forwarding reads the ports in place
// (ExtractFiveTuple); this is the reference the round-trip and fuzz tests hold
// SerializeTo against.
func (u *UDP) decodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	if int(u.Length) < UDPHeaderLen || int(u.Length) > len(data) {
		return ErrTruncated
	}
	u.payload = data[UDPHeaderLen:u.Length]
	return nil
}

// SerializeTo writes the UDP header into buf. The checksum is left zero
// (legal for IPv4 UDP) to keep the encap/decap hot path cheap.
func (u *UDP) SerializeTo(buf []byte) (int, error) {
	if len(buf) < UDPHeaderLen {
		return 0, fmt.Errorf("packet: serialize buffer too short for UDP")
	}
	binary.BigEndian.PutUint16(buf[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], u.DstPort)
	binary.BigEndian.PutUint16(buf[4:6], u.Length)
	binary.BigEndian.PutUint16(buf[6:8], 0)
	return UDPHeaderLen, nil
}

// TCPHeaderLen is the length of the fixed TCP header we emit (no options).
const TCPHeaderLen = 20

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
)

// TCP is a decoded TCP header (the subset the load balancer needs: ports
// for hashing and flags for connection tracking in the SMux).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          uint8
	Flags            uint8
	Window           uint16
	Checksum         uint16

	payload []byte
}

// decodeFromBytes parses a TCP header: the tests' reference, as for UDP.
func (t *TCP) decodeFromBytes(data []byte) error {
	if len(data) < TCPHeaderLen {
		return ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOff = data[12] >> 4
	if t.DataOff < 5 {
		return ErrBadIHL
	}
	hlen := int(t.DataOff) * 4
	if len(data) < hlen {
		return ErrTruncated
	}
	t.Flags = data[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.payload = data[hlen:]
	return nil
}

// SerializeTo writes the TCP header into buf with DataOff forced to 5.
func (t *TCP) SerializeTo(buf []byte) (int, error) {
	if len(buf) < TCPHeaderLen {
		return 0, fmt.Errorf("packet: serialize buffer too short for TCP")
	}
	binary.BigEndian.PutUint16(buf[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], t.DstPort)
	binary.BigEndian.PutUint32(buf[4:8], t.Seq)
	binary.BigEndian.PutUint32(buf[8:12], t.Ack)
	buf[12] = 5 << 4
	buf[13] = t.Flags & 0x3f
	binary.BigEndian.PutUint16(buf[14:16], t.Window)
	binary.BigEndian.PutUint16(buf[16:18], 0)
	binary.BigEndian.PutUint16(buf[18:20], 0)
	return TCPHeaderLen, nil
}

// Flow is what one checked decode of a packet's outermost IPv4 header hands
// to the stages after it: the five-tuple every tier hashes, and the TCP flags
// the SMux's connection tracking reads (0 for other protocols, or a TCP
// segment too short to carry them). It is a value: a stage that was handed
// one does not decode the header again.
type Flow struct {
	Tuple FiveTuple
	Flags uint8
}

// Parse verifies the outermost IPv4 header of data — version, IHL, lengths
// and header checksum — and returns its flow: the addresses and protocol,
// the TCP/UDP ports (zero for other protocols) and the TCP flags, read in
// place. It is the one verified decode a packet gets per process.
//
//duet:hotpath
func Parse(data []byte) (Flow, error) {
	var ip IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		return Flow{}, err
	}
	f := Flow{Tuple: FiveTuple{Src: ip.Src, Dst: ip.Dst, Proto: ip.Protocol}}
	switch ip.Protocol {
	case ProtoTCP, ProtoUDP:
		p := ip.payload
		if len(p) < 4 {
			return Flow{}, ErrTruncated
		}
		f.Tuple.SrcPort = binary.BigEndian.Uint16(p[0:2])
		f.Tuple.DstPort = binary.BigEndian.Uint16(p[2:4])
		if ip.Protocol == ProtoTCP && len(p) >= 14 {
			f.Flags = p[13] & 0x3f
		}
	}
	return f, nil
}

// ExtractFiveTuple is Parse for a caller that wants only the tuple.
//
//duet:hotpath
func ExtractFiveTuple(data []byte) (FiveTuple, error) {
	f, err := Parse(data)
	return f.Tuple, err
}
