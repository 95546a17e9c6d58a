package packet

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"10.0.0.1", 0x0a000001, true},
		{"192.168.1.200", 0xc0a801c8, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"1.2.3.256", 0, false},
		{"1.2.3.-1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", c.in)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		back, err := ParseAddr(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseAddr did not panic on bad input")
		}
	}()
	MustParseAddr("not-an-ip")
}

func TestAddrFrom4AndOctets(t *testing.T) {
	a := AddrFrom4(10, 20, 30, 40)
	o0, o1, o2, o3 := a.Octets()
	if o0 != 10 || o1 != 20 || o2 != 30 || o3 != 40 {
		t.Fatalf("octets = %d.%d.%d.%d", o0, o1, o2, o3)
	}
	if a.String() != "10.20.30.40" {
		t.Fatalf("String() = %s", a)
	}
	if !Addr(0).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParseAddr("10.1.255.255")) {
		t.Error("10.1.255.255 should be inside 10.1.0.0/16")
	}
	if p.Contains(MustParseAddr("10.2.0.0")) {
		t.Error("10.2.0.0 should be outside 10.1.0.0/16")
	}
	host := HostPrefix(MustParseAddr("10.1.2.3"))
	if !host.Contains(MustParseAddr("10.1.2.3")) || host.Contains(MustParseAddr("10.1.2.4")) {
		t.Error("host prefix containment wrong")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseAddr("200.1.2.3")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixFromMasksHostBits(t *testing.T) {
	p := PrefixFrom(MustParseAddr("10.1.2.3"), 16)
	if p.Addr != MustParseAddr("10.1.0.0") {
		t.Fatalf("PrefixFrom did not zero host bits: %s", p)
	}
	if p.String() != "10.1.0.0/16" {
		t.Fatalf("String() = %s", p)
	}
}

func TestPrefixFromClampsBits(t *testing.T) {
	if got := PrefixFrom(0xffffffff, 40); got.Bits != 32 {
		t.Errorf("bits > 32 not clamped: %d", got.Bits)
	}
	if got := PrefixFrom(0xffffffff, -3); got.Bits != 0 || got.Addr != 0 {
		t.Errorf("bits < 0 not clamped: %v", got)
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "x/8", "10.0.0.0/x"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestMaskBoundaries(t *testing.T) {
	if Mask(0) != 0 {
		t.Error("Mask(0) != 0")
	}
	if Mask(32) != 0xffffffff {
		t.Error("Mask(32) != all ones")
	}
	if Mask(24) != 0xffffff00 {
		t.Errorf("Mask(24) = %x", uint32(Mask(24)))
	}
	if Mask(-1) != 0 || Mask(33) != 0xffffffff {
		t.Error("Mask out-of-range not clamped")
	}
}

func TestPrefixNesting(t *testing.T) {
	// Property: for any addr and bits, the prefix contains its own address,
	// and a shorter prefix of the same address contains the longer one.
	f := func(a uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw % 33)
		addr := Addr(a)
		p := PrefixFrom(addr, bits)
		if !p.Contains(addr) {
			return false
		}
		if bits > 0 {
			shorter := PrefixFrom(addr, bits-1)
			if !shorter.Contains(p.Addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr Addr) bool {
	return addr&Mask(p.Bits) == p.Addr
}

// refParseAddr is ParseAddr as it was written before it stopped allocating:
// strings.Split into four fields, strconv.Atoi each into 0–255. The
// reference FuzzParseAddr holds the parser to.
func refParseAddr(s string) (Addr, bool) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, false
	}
	var a uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, false
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), true
}

// FuzzParseAddr: ParseAddr accepts exactly the strings the reference does,
// with the same value.
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{
		"0.0.0.0", "255.255.255.255", "10.0.0.1", "1.2.3", "1.2.3.4.5", "1.2.3.256",
		"1.2.3.-1", "a.b.c.d", "", "+1.2.3.4", "-0.0.0.0", "1.2.3.-0", "001.002.003.004",
		"1..2.3", "1.2.3.4.", ".1.2.3", "1.2.3.", "+.1.2.3", "-.1.2.3", "1.2.3.4 ",
		"99999999999999999999.1.1.1", "0000000000000000000000255.0.0.1", "1.2.3.+-4", "1.2.3.0x1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseAddr(s)
		want, ok := refParseAddr(s)
		if (err == nil) != ok || got != want {
			t.Fatalf("ParseAddr(%q) = %v, %v; reference %v, %v", s, got, err, want, ok)
		}
	})
}

// TestZeroAllocParseAddr: parsing a valid address allocates nothing.
func TestZeroAllocParseAddr(t *testing.T) {
	var sink Addr
	if allocs := testing.AllocsPerRun(100, func() {
		a, err := ParseAddr("192.168.10.200")
		if err != nil {
			t.Fatal(err)
		}
		sink += a
	}); allocs != 0 {
		t.Fatalf("ParseAddr: %v allocs/op, want 0", allocs)
	}
	_ = sink
}
