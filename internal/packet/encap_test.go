package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncapDecapRoundTrip(t *testing.T) {
	tuple := FiveTuple{
		Src: MustParseAddr("20.0.0.1"), Dst: MustParseAddr("10.0.0.0"),
		SrcPort: 4242, DstPort: 80, Proto: ProtoTCP,
	}
	inner := BuildTCP(tuple, TCPSyn, []byte("payload"))
	mux := MustParseAddr("100.0.0.254")
	dip := MustParseAddr("100.0.0.1")

	encap, err := Encapsulate(nil, mux, dip, inner, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(encap) != HeaderLen+len(inner) {
		t.Fatalf("encap length = %d, want %d", len(encap), HeaderLen+len(inner))
	}

	got, outer, err := Decapsulate(encap)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Src != mux || outer.Dst != dip || outer.Protocol != ProtoIPIP {
		t.Fatalf("outer header wrong: %+v", outer)
	}
	if !bytes.Equal(got, inner) {
		t.Fatal("inner packet corrupted by encap/decap")
	}

	// The inner 5-tuple must be recoverable through the tunnel.
	it, err := ExtractFiveTuple(got)
	if err != nil {
		t.Fatal(err)
	}
	if it != tuple {
		t.Fatalf("inner tuple = %v, want %v", it, tuple)
	}
}

func TestEncapDecapProperty(t *testing.T) {
	f := func(src, dst, mux, dip uint32, sport, dport uint16, n uint8) bool {
		tuple := FiveTuple{Src: Addr(src), Dst: Addr(dst), SrcPort: sport, DstPort: dport, Proto: ProtoUDP}
		inner := BuildUDP(tuple, make([]byte, int(n)))
		encap, err := Encapsulate(nil, Addr(mux), Addr(dip), inner, 64)
		if err != nil {
			return false
		}
		got, outer, err := Decapsulate(encap)
		if err != nil {
			return false
		}
		return bytes.Equal(got, inner) && outer.Dst == Addr(dip) && outer.Src == Addr(mux)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncapsulateAppendsToBuffer(t *testing.T) {
	inner := BuildUDP(FiveTuple{Src: 1, Dst: 2, Proto: ProtoUDP}, nil)
	prefix := []byte{0xde, 0xad}
	out, err := Encapsulate(prefix, 3, 4, inner, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("Encapsulate clobbered existing buffer contents")
	}
	if _, _, err := Decapsulate(out[2:]); err != nil {
		t.Fatal(err)
	}
}

func TestEncapsulateTooLarge(t *testing.T) {
	if _, err := Encapsulate(nil, 1, 2, make([]byte, 0x10000), 64); err == nil {
		t.Fatal("expected error for oversized inner packet")
	}
}

func TestDecapsulateNotIPIP(t *testing.T) {
	plain := BuildUDP(FiveTuple{Src: 1, Dst: 2, Proto: ProtoUDP}, nil)
	if _, _, err := Decapsulate(plain); !errors.Is(err, ErrNotIPIP) {
		t.Fatalf("decapsulating a non-tunneled packet: got %v, want ErrNotIPIP", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = Decapsulate(plain) }); allocs != 0 {
		t.Fatalf("the not-IP-in-IP rejection allocates %v times, want 0", allocs)
	}
}

func TestExtractFiveTuple(t *testing.T) {
	want := FiveTuple{
		Src: MustParseAddr("1.2.3.4"), Dst: MustParseAddr("5.6.7.8"),
		SrcPort: 1111, DstPort: 53, Proto: ProtoUDP,
	}
	got, err := ExtractFiveTuple(BuildUDP(want, []byte("q")))
	if err != nil || got != want {
		t.Fatalf("ExtractFiveTuple = %v, %v; want %v", got, err, want)
	}

	wantTCP := want
	wantTCP.Proto = ProtoTCP
	got, err = ExtractFiveTuple(BuildTCP(wantTCP, TCPAck, nil))
	if err != nil || got != wantTCP {
		t.Fatalf("ExtractFiveTuple(TCP) = %v, %v; want %v", got, err, wantTCP)
	}
}

func TestFiveTupleReverse(t *testing.T) {
	tup := FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}
	r := tup.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SrcPort != 4 || r.DstPort != 3 || r.Proto != ProtoTCP {
		t.Fatalf("Reverse = %v", r)
	}
	if r.Reverse() != tup {
		t.Fatal("double reverse should be identity")
	}
}

func TestRewriteDstSrc(t *testing.T) {
	tup := FiveTuple{Src: MustParseAddr("9.9.9.9"), Dst: MustParseAddr("10.0.0.0"), SrcPort: 99, DstPort: 80, Proto: ProtoUDP}
	pkt := BuildUDP(tup, []byte("x"))

	dip := MustParseAddr("100.0.0.7")
	if err := RewriteDst(pkt, dip); err != nil {
		t.Fatal(err)
	}
	var ip IPv4
	if err := ip.DecodeFromBytes(pkt); err != nil {
		t.Fatalf("rewritten packet has bad checksum: %v", err)
	}
	if ip.Dst != dip {
		t.Fatalf("dst = %s, want %s", ip.Dst, dip)
	}

	vip := MustParseAddr("10.0.0.0")
	if err := RewriteSrc(pkt, vip); err != nil {
		t.Fatal(err)
	}
	if err := ip.DecodeFromBytes(pkt); err != nil {
		t.Fatalf("rewritten packet has bad checksum: %v", err)
	}
	if ip.Src != vip {
		t.Fatalf("src = %s, want %s", ip.Src, vip)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 10, DstPort: 20, Length: UDPHeaderLen + 3}
	buf := make([]byte, UDPHeaderLen+3)
	if _, err := u.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf[UDPHeaderLen:], "abc")
	var got UDP
	if err := got.decodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 10 || got.DstPort != 20 || string(got.payload) != "abc" {
		t.Fatalf("round trip mismatch: %+v payload %q", got, got.payload)
	}
}

func TestUDPDecodeErrors(t *testing.T) {
	var u UDP
	if err := u.decodeFromBytes(make([]byte, 4)); err != ErrTruncated {
		t.Error("short UDP should be ErrTruncated")
	}
	buf := make([]byte, UDPHeaderLen)
	UDP{Length: 100}.serializeForTest(buf)
	if err := u.decodeFromBytes(buf); err != ErrTruncated {
		t.Error("UDP length beyond buffer should be ErrTruncated")
	}
}

// serializeForTest writes without the length sanity applied by SerializeTo.
func (u UDP) serializeForTest(buf []byte) {
	_, _ = u.SerializeTo(buf)
}

func TestTCPRoundTrip(t *testing.T) {
	tcp := TCP{SrcPort: 443, DstPort: 55000, Seq: 7, Ack: 9, Flags: TCPSyn | TCPAck, Window: 1024}
	buf := make([]byte, TCPHeaderLen+2)
	if _, err := tcp.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf[TCPHeaderLen:], "hi")
	var got TCP
	if err := got.decodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 443 || got.DstPort != 55000 || got.Seq != 7 || got.Ack != 9 ||
		got.Flags != TCPSyn|TCPAck || got.Window != 1024 || string(got.payload) != "hi" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestTCPDecodeErrors(t *testing.T) {
	var tcp TCP
	if err := tcp.decodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Error("short TCP should be ErrTruncated")
	}
	buf := make([]byte, TCPHeaderLen)
	buf[12] = 3 << 4 // DataOff < 5
	if err := tcp.decodeFromBytes(buf); err != ErrBadIHL {
		t.Error("bad data offset should be ErrBadIHL")
	}
	buf[12] = 15 << 4 // options beyond buffer
	if err := tcp.decodeFromBytes(buf); err != ErrTruncated {
		t.Error("data offset beyond buffer should be ErrTruncated")
	}
}

func TestExtractFiveTupleTruncatedTransport(t *testing.T) {
	// An IPv4 header claiming UDP but with only 2 payload bytes.
	h := IPv4{Length: HeaderLen + 2, TTL: 64, Protocol: ProtoUDP, Src: 1, Dst: 2}
	buf := make([]byte, HeaderLen+2)
	if _, err := h.SerializeTo(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractFiveTuple(buf); err != ErrTruncated {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

func BenchmarkEncapsulate(b *testing.B) {
	inner := BuildUDP(FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}, make([]byte, 1400))
	buf := make([]byte, 0, HeaderLen+len(inner))
	b.ReportAllocs()
	b.SetBytes(int64(len(inner)))
	for i := 0; i < b.N; i++ {
		out, err := Encapsulate(buf[:0], 5, 6, inner, 64)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

func BenchmarkExtractFiveTuple(b *testing.B) {
	pkt := BuildUDP(FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}, make([]byte, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractFiveTuple(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
