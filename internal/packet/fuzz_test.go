package packet

// Native fuzz targets for the codec: every decoder must be total (no panics
// on arbitrary bytes), and encode→decode must be the identity on the fields
// we emit. Run with `go test -fuzz FuzzIPv4 ./internal/packet` etc.; the
// checked-in seeds cover the interesting shapes (valid headers, IP-in-IP
// nesting, truncations at every layer).

import (
	"bytes"
	"encoding/binary"
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
		if !bytes.Equal(Payload(data), inner) {
			t.Fatal("Payload disagrees with Decapsulate on the inner packet")
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
		fl, err := Parse(data)
		if tup, terr := ExtractFiveTuple(data); (terr == nil) != (err == nil) || tup != fl.Tuple {
			t.Fatalf("ExtractFiveTuple = %v, %v; Parse = %v, %v", tup, terr, fl, err)
		}
		if err != nil {
			return
		}
		tup := fl.Tuple
		var ip IPv4
		if ip.DecodeFromBytes(data) != nil {
			t.Fatal("Parse accepted what DecodeFromBytes rejects")
		}
		if tup.Src != ip.Src || tup.Dst != ip.Dst || tup.Proto != ip.Protocol {
			t.Fatalf("tuple %v does not match header %+v", tup, ip)
		}
		// The flags Parse reads in place are the TCP header's, and only TCP
		// has any.
		var tcp TCP
		switch {
		case ip.Protocol != ProtoTCP && fl.Flags != 0:
			t.Fatalf("proto %d carries flags %#x", ip.Protocol, fl.Flags)
		case ip.Protocol == ProtoTCP && tcp.decodeFromBytes(ip.Payload()) == nil && fl.Flags != tcp.Flags:
			t.Fatalf("flags %#x, TCP header says %#x", fl.Flags, tcp.Flags)
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

// FuzzRewrite holds the in-place header rewrites the host agent performs to
// an independent reference. For any header that decodes, the rewritten
// header checksums to 0, carries the new address, and differs from the
// original in no other byte — options and payload included; for a header
// without options the bytes equal a full re-serialisation with the checksum
// summed from scratch (reserialized). bench/'s output oracle calls
// RewriteDst too, so this is what keeps the oracle and the datapath from
// sharing a bug.
func FuzzRewrite(f *testing.F) {
	f.Add(validHeader(ProtoTCP, []byte("payload")), uint32(0x64000001), false)
	f.Add(validHeader(ProtoUDP, []byte("payload")), uint32(0x0a000001), true)
	f.Add(withOptions(validHeader(ProtoTCP, []byte("payload"))), uint32(9), false)
	f.Add(withOptions(validHeader(ProtoTCP, nil)), uint32(9), true)
	// The ones'-complement corners: checksum fields -0 and +0, addresses of
	// all ones and all zeros.
	for _, cs := range []uint16{0x0000, 0xffff} {
		f.Add(cornerHeader(0xffffffff, cs), uint32(0), false)
		f.Add(cornerHeader(0, cs), uint32(0xffffffff), false)
		f.Add(cornerHeader(0xffffffff, cs), uint32(0xffffffff), false)
		f.Add(cornerHeader(0, cs), uint32(0), false)
	}

	f.Fuzz(func(t *testing.T, data []byte, addr uint32, src bool) {
		rewrite, off := RewriteDst, 16
		if src {
			rewrite, off = RewriteSrc, 12
		}
		var before IPv4
		if before.DecodeFromBytes(data) != nil {
			_ = rewrite(data, Addr(addr)) // must not panic on garbage
			return
		}
		orig := bytes.Clone(data)
		if err := rewrite(data, Addr(addr)); err != nil {
			t.Fatalf("rewriting a header that decodes: %v", err)
		}
		if cs := Checksum(data[:before.IHL*4]); cs != 0 {
			t.Fatalf("rewritten header sums to %#04x, want 0", cs)
		}
		if got := Addr(binary.BigEndian.Uint32(data[off:])); got != Addr(addr) {
			t.Fatalf("rewrote %s, want %s", got, Addr(addr))
		}
		for i := range data {
			if i != 10 && i != 11 && (i < off || i >= off+4) && data[i] != orig[i] {
				t.Fatalf("byte %d changed %#02x → %#02x: only the address and the checksum may", i, orig[i], data[i])
			}
		}
		if before.IHL == 5 {
			if want := reserialized(orig, Addr(addr), src); !bytes.Equal(data, want) {
				t.Fatalf("incremental update\n%x\nfull re-serialisation\n%x", data[:HeaderLen], want[:HeaderLen])
			}
		}
	})
}

// reserialized is the reference FuzzRewrite holds the incremental update to:
// decode the header, set the address, serialise the whole header with its
// checksum summed from scratch, keep every byte after it.
func reserialized(data []byte, addr Addr, src bool) []byte {
	var ip IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		panic(err)
	}
	if src {
		ip.Src = addr
	} else {
		ip.Dst = addr
	}
	out := bytes.Clone(data)
	if _, err := ip.SerializeTo(out); err != nil {
		panic(err)
	}
	return out
}

// withOptions returns pkt with a 4-byte IP options field (three NOPs and an
// end of list) after its fixed header: IHL 6, lengths and checksum to match.
func withOptions(pkt []byte) []byte {
	out := append(append(bytes.Clone(pkt[:HeaderLen]), 1, 1, 1, 0), pkt[HeaderLen:]...)
	out[0] = 4<<4 | 6
	binary.BigEndian.PutUint16(out[2:4], uint16(len(out)))
	out[10], out[11] = 0, 0
	binary.BigEndian.PutUint16(out[10:12], Checksum(out[:24]))
	return out
}

// cornerHeader is a valid header to dst whose checksum field reads cs, 0x0000
// or 0xffff: its ID is chosen so the other words sum to -0, where both
// spellings of the checksum verify.
func cornerHeader(dst Addr, cs uint16) []byte {
	h := validHeader(ProtoTCP, []byte("payload"))
	binary.BigEndian.PutUint32(h[16:20], uint32(dst))
	h[10], h[11] = 0, 0
	id := uint32(binary.BigEndian.Uint16(h[4:6])) + uint32(Checksum(h[:HeaderLen]))
	binary.BigEndian.PutUint16(h[4:6], uint16(id&0xffff+id>>16))
	binary.BigEndian.PutUint16(h[10:12], cs)
	return h
}

// FuzzChecksum: Checksum agrees bit for bit with the 16-bit RFC 1071
// reference on any buffer.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(validHeader(ProtoTCP, nil)[:HeaderLen])
	f.Add(bytes.Repeat([]byte{0xff}, 41))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := Checksum(data), checksumRef(data); got != want {
			t.Fatalf("Checksum(%x) = %#04x, reference %#04x", data, got, want)
		}
	})
}
