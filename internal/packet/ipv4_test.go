package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{
		TOS:      0x10,
		Length:   HeaderLen + 8,
		ID:       0x1234,
		Flags:    2,
		FragOff:  0,
		TTL:      63,
		Protocol: ProtoUDP,
		Src:      MustParseAddr("10.0.0.1"),
		Dst:      MustParseAddr("10.0.0.2"),
	}
	buf := make([]byte, HeaderLen+8)
	n, err := h.SerializeTo(buf)
	if err != nil || n != HeaderLen {
		t.Fatalf("SerializeTo: %d, %v", n, err)
	}
	var got IPv4
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatalf("DecodeFromBytes: %v", err)
	}
	if got.TOS != h.TOS || got.Length != h.Length || got.ID != h.ID ||
		got.Flags != h.Flags || got.TTL != h.TTL || got.Protocol != h.Protocol ||
		got.Src != h.Src || got.Dst != h.Dst {
		t.Fatalf("round trip mismatch: %+v != %+v", got, h)
	}
	if len(got.Payload()) != 8 {
		t.Fatalf("payload length = %d, want 8", len(got.Payload()))
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, tos, ttl, proto uint8, id uint16, payloadLen uint16) bool {
		plen := int(payloadLen % 512)
		h := IPv4{
			TOS: tos, TTL: ttl, Protocol: proto, ID: id,
			Length: uint16(HeaderLen + plen),
			Src:    Addr(src), Dst: Addr(dst),
		}
		buf := make([]byte, HeaderLen+plen)
		if _, err := h.SerializeTo(buf); err != nil {
			return false
		}
		var got IPv4
		if err := got.DecodeFromBytes(buf); err != nil {
			return false
		}
		return got.Src == h.Src && got.Dst == h.Dst && got.Protocol == proto &&
			got.TTL == ttl && got.TOS == tos && got.ID == id && len(got.Payload()) == plen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var h IPv4

	if err := h.DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short buffer: got %v, want ErrTruncated", err)
	}

	good := BuildUDP(FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}, nil)

	bad := bytes.Clone(good)
	bad[0] = 6<<4 | 5 // version 6
	if err := h.DecodeFromBytes(bad); err != ErrBadVersion {
		t.Errorf("bad version: got %v, want ErrBadVersion", err)
	}

	bad = bytes.Clone(good)
	bad[0] = 4<<4 | 3 // IHL < 5
	if err := h.DecodeFromBytes(bad); err != ErrBadIHL {
		t.Errorf("bad IHL: got %v, want ErrBadIHL", err)
	}

	bad = bytes.Clone(good)
	bad[8]++ // corrupt TTL without fixing checksum
	if err := h.DecodeFromBytes(bad); err != ErrBadChecksum {
		t.Errorf("corrupted: got %v, want ErrBadChecksum", err)
	}

	bad = bytes.Clone(good)
	bad[2], bad[3] = 0xff, 0xff // total length beyond buffer
	if err := h.DecodeFromBytes(bad); err != ErrTruncated {
		t.Errorf("overlong length: got %v, want ErrTruncated", err)
	}

	// IHL claims options beyond buffer end.
	tiny := bytes.Clone(good[:HeaderLen])
	tiny[0] = 4<<4 | 15
	if err := h.DecodeFromBytes(tiny); err != ErrTruncated {
		t.Errorf("IHL beyond buffer: got %v, want ErrTruncated", err)
	}
}

func TestSerializeToShortBuffer(t *testing.T) {
	var h IPv4
	if _, err := h.SerializeTo(make([]byte, 5)); err == nil {
		t.Fatal("expected error on short buffer")
	}
}

func TestChecksumZeroOverValid(t *testing.T) {
	pkt := BuildUDP(FiveTuple{Src: 0x0a000001, Dst: 0x0a000002, SrcPort: 80, DstPort: 8080, Proto: ProtoUDP}, []byte("hello"))
	if Checksum(pkt[:HeaderLen]) != 0 {
		t.Fatal("checksum over valid header should be zero")
	}
}

func TestChecksumOddLength(t *testing.T) {
	// An odd-length buffer must be padded as if a trailing zero byte existed.
	even := []byte{0x12, 0x34, 0x56, 0x00}
	odd := []byte{0x12, 0x34, 0x56}
	if Checksum(even) != Checksum(odd) {
		t.Fatalf("odd-length checksum mismatch: %x vs %x", Checksum(even), Checksum(odd))
	}
}

// checksumRef is RFC 1071's reference: 16-bit big-endian words, an odd
// byte padded with zero, end-around carry folded at the end.
func checksumRef(b []byte) uint16 {
	var sum uint64
	for i := 0; i < len(b); i += 2 {
		w := uint64(b[i]) << 8
		if i+1 < len(b) {
			w |= uint64(b[i+1])
		}
		sum += w
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TestChecksumMatchesReference: the 32-bit-word sum (and its 20-byte fast
// path) is bit-identical to the 16-bit reference on all-zero, all-0xff and
// patterned buffers of every length 0–80, odd ones included.
func TestChecksumMatchesReference(t *testing.T) {
	for n := 0; n <= 80; n++ {
		zero, ones, pattern := make([]byte, n), make([]byte, n), make([]byte, n)
		for i := range n {
			ones[i], pattern[i] = 0xff, byte(i*37+n)
		}
		for name, b := range map[string][]byte{"zero": zero, "0xff": ones, "pattern": pattern} {
			if got, want := Checksum(b), checksumRef(b); got != want {
				t.Errorf("%s, %d bytes: Checksum = %#04x, reference %#04x", name, n, got, want)
			}
		}
	}
}

func BenchmarkChecksum(b *testing.B) {
	h := BuildUDP(FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}, nil)[:HeaderLen]
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink += Checksum(h)
	}
	_ = sink
}

func BenchmarkIPv4Decode(b *testing.B) {
	pkt := BuildUDP(FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}, make([]byte, 64))
	var h IPv4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := h.DecodeFromBytes(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIPv4Serialize(b *testing.B) {
	h := IPv4{Length: HeaderLen, TTL: 64, Protocol: ProtoTCP, Src: 1, Dst: 2}
	buf := make([]byte, HeaderLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.SerializeTo(buf); err != nil {
			b.Fatal(err)
		}
	}
}
