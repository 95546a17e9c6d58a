package packet

// Native fuzz targets for the codec: every decoder must be total (no panics
// on arbitrary bytes), and encode→decode must be the identity on the fields
// we emit. Run with `go test -fuzz FuzzIPv4 ./internal/packet` etc.; the
// checked-in seeds cover the interesting shapes (valid headers, IP-in-IP
// nesting, truncations at every layer).

import (
	"bytes"
	"testing"
)

// validHeader builds a checksummed 20-byte header + payload for seeding.
func validHeader(proto uint8, payload []byte) []byte {
	buf := make([]byte, HeaderLen+len(payload))
	ip := IPv4{TTL: 64, Protocol: proto, Length: uint16(len(buf)), Src: 0x0a000001, Dst: 0x0a000002}
	if _, err := ip.SerializeTo(buf); err != nil {
		panic(err)
	}
	copy(buf[HeaderLen:], payload)
	return buf
}

func FuzzIPv4Decode(f *testing.F) {
	f.Add([]byte{})
	f.Add(validHeader(ProtoTCP, []byte("pay")))
	f.Add(validHeader(ProtoTCP, []byte("pay"))[:HeaderLen-1]) // truncated header
	withOptions := append([]byte{0x46, 0, 0, 24, 0, 0, 0, 0, 64, 6, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 9}, 0)
	f.Add(withOptions)

	f.Fuzz(func(t *testing.T, data []byte) {
		var h IPv4
		if err := h.DecodeFromBytes(data); err != nil {
			return
		}
		// Decode invariants: the header's claims fit the buffer.
		hlen := int(h.IHL) * 4
		if int(h.Length) > len(data) || int(h.Length) < hlen {
			t.Fatalf("accepted Length %d outside [%d, %d]", h.Length, hlen, len(data))
		}
		if len(h.Payload()) != int(h.Length)-hlen {
			t.Fatalf("payload %d != Length-IHL %d", len(h.Payload()), int(h.Length)-hlen)
		}
		// Round trip: re-serialize (options are not emitted, so rebuild the
		// length for the 20-byte header) and the fields must survive.
		payload := h.Payload()
		out := make([]byte, HeaderLen+len(payload))
		h2 := h
		h2.Length = uint16(HeaderLen + len(payload))
		if _, err := h2.SerializeTo(out); err != nil {
			t.Fatalf("re-serialize decoded header: %v", err)
		}
		copy(out[HeaderLen:], payload)
		var h3 IPv4
		if err := h3.DecodeFromBytes(out); err != nil {
			t.Fatalf("re-decode serialized header: %v", err)
		}
		if h3.Src != h.Src || h3.Dst != h.Dst || h3.Protocol != h.Protocol ||
			h3.TTL != h.TTL || h3.TOS != h.TOS || h3.ID != h.ID ||
			h3.Flags != h.Flags || h3.FragOff != h.FragOff {
			t.Fatalf("round trip changed header: %+v != %+v", h3, h)
		}
		if !bytes.Equal(h3.Payload(), payload) {
			t.Fatal("round trip changed payload")
		}
	})
}

func FuzzEncapDecap(f *testing.F) {
	f.Add(uint32(0x0a000001), uint32(0x64000001), uint8(64), []byte{})
	f.Add(uint32(1), uint32(2), uint8(0), validHeader(ProtoTCP, []byte("inner")))
	// Nested IP-in-IP as the inner payload.
	nested, _ := Encapsulate(nil, 7, 8, validHeader(ProtoUDP, []byte("deep")), 64)
	f.Add(uint32(3), uint32(4), uint8(1), nested)

	f.Fuzz(func(t *testing.T, src, dst uint32, ttl uint8, inner []byte) {
		out, err := Encapsulate(nil, Addr(src), Addr(dst), inner, ttl)
		if err != nil {
			if HeaderLen+len(inner) <= 0xffff {
				t.Fatalf("Encapsulate rejected a fitting packet: %v", err)
			}
			return
		}
		got, outer, err := Decapsulate(out)
		if err != nil {
			t.Fatalf("Decapsulate(Encapsulate(...)): %v", err)
		}
		if outer.Src != Addr(src) || outer.Dst != Addr(dst) || outer.TTL != ttl {
			t.Fatalf("outer header mangled: %+v", outer)
		}
		if !bytes.Equal(got, inner) {
			t.Fatal("inner packet mangled by encap/decap")
		}
		// Double nesting must also round trip (TIP indirection wraps an
		// already-encapsulated packet, §5.2).
		out2, err := Encapsulate(nil, Addr(dst), Addr(src), out, ttl)
		if err != nil {
			if HeaderLen+len(out) <= 0xffff {
				t.Fatalf("nested Encapsulate rejected: %v", err)
			}
			return
		}
		mid, _, err := Decapsulate(out2)
		if err != nil {
			t.Fatalf("outer Decapsulate: %v", err)
		}
		in2, _, err := Decapsulate(mid)
		if err != nil {
			t.Fatalf("inner Decapsulate: %v", err)
		}
		if !bytes.Equal(in2, inner) {
			t.Fatal("double-nested round trip mangled the innermost packet")
		}
	})
}

func FuzzDecapsulate(f *testing.F) {
	valid, _ := Encapsulate(nil, 1, 2, validHeader(ProtoTCP, nil), 64)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated mid-inner
	f.Add(valid[:HeaderLen-1])  // truncated mid-outer
	f.Add(validHeader(ProtoTCP, []byte("not ipip")))

	f.Fuzz(func(t *testing.T, data []byte) {
		inner, outer, err := Decapsulate(data)
		if err != nil {
			return
		}
		if outer.Protocol != ProtoIPIP {
			t.Fatalf("accepted proto %d", outer.Protocol)
		}
		if len(inner) > len(data) {
			t.Fatal("inner longer than input")
		}
	})
}

func FuzzExtractFiveTuple(f *testing.F) {
	f.Add(validHeader(ProtoTCP, nil))
	f.Add(BuildTCP(FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}, TCPSyn, nil))
	f.Add(BuildUDP(FiveTuple{Src: 5, Dst: 6, SrcPort: 7, DstPort: 8, Proto: ProtoUDP}, []byte("x")))
	f.Add(validHeader(ProtoICMP, []byte{8, 0}))
	short := validHeader(ProtoTCP, []byte{0, 1, 2}) // ports truncated
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		tup, err := ExtractFiveTuple(data)
		if err != nil {
			return
		}
		var ip IPv4
		if ip.DecodeFromBytes(data) != nil {
			t.Fatal("ExtractFiveTuple accepted what DecodeFromBytes rejects")
		}
		if tup.Src != ip.Src || tup.Dst != ip.Dst || tup.Proto != ip.Protocol {
			t.Fatalf("tuple %v does not match header %+v", tup, ip)
		}
	})
}

func FuzzTransportDecode(f *testing.F) {
	f.Add([]byte{}, []byte{})
	syn := BuildTCP(FiveTuple{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4}, TCPSyn, []byte("p"))
	f.Add(syn[HeaderLen:], BuildUDP(FiveTuple{Src: 1, Dst: 2}, []byte("q"))[HeaderLen:])

	f.Fuzz(func(t *testing.T, tcpBytes, udpBytes []byte) {
		var tcp TCP
		if err := tcp.decodeFromBytes(tcpBytes); err == nil {
			if int(tcp.DataOff)*4 > len(tcpBytes) {
				t.Fatal("TCP DataOff beyond buffer accepted")
			}
		}
		var udp UDP
		if err := udp.decodeFromBytes(udpBytes); err == nil {
			if int(udp.Length) > len(udpBytes) {
				t.Fatal("UDP Length beyond buffer accepted")
			}
		}
	})
}

// FuzzRewrite checks the in-place header rewrites the host agent performs:
// after RewriteDst/RewriteSrc, the packet must still decode and its payload
// must be untouched.
func FuzzRewrite(f *testing.F) {
	f.Add(validHeader(ProtoTCP, []byte("payload")), uint32(0x64000001))
	withOptions := make([]byte, 28)
	withOptions[0] = 0x46 // IHL=6: header with options
	f.Add(withOptions, uint32(9))

	f.Fuzz(func(t *testing.T, data []byte, addr uint32) {
		var before IPv4
		if before.DecodeFromBytes(data) != nil {
			_ = RewriteDst(data, Addr(addr)) // must not panic on garbage
			return
		}
		payload := append([]byte(nil), before.Payload()...)
		if err := RewriteDst(data, Addr(addr)); err != nil {
			return // a packet we can't rewrite must be left undecided, not corrupted
		}
		var after IPv4
		if err := after.DecodeFromBytes(data); err != nil {
			t.Fatalf("packet undecodable after RewriteDst: %v", err)
		}
		if after.Dst != Addr(addr) {
			t.Fatalf("RewriteDst wrote %s, want %s", after.Dst, Addr(addr))
		}
		if !bytes.Equal(after.Payload(), payload) {
			t.Fatal("RewriteDst corrupted the payload")
		}
	})
}
