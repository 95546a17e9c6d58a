package service

import (
	"strings"
	"testing"

	"duet/internal/packet"
)

func bk(a string, w uint32) Backend {
	return Backend{Addr: packet.MustParseAddr(a), Weight: w}
}

func TestValidate(t *testing.T) {
	valid := VIP{Addr: packet.MustParseAddr("10.0.0.1"), Backends: []Backend{bk("1.1.1.1", 1)}}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}

	cases := []VIP{
		{},                                       // no address
		{Addr: packet.MustParseAddr("10.0.0.1")}, // no backends
		{Addr: packet.MustParseAddr("10.0.0.1"), // empty port rule
			Ports: []PortRule{{Port: 80}}},
		{Addr: packet.MustParseAddr("10.0.0.1"), // duplicate port
			Backends: []Backend{bk("1.1.1.1", 1)},
			Ports: []PortRule{
				{Port: 80, Backends: []Backend{bk("1.1.1.2", 1)}},
				{Port: 80, Backends: []Backend{bk("1.1.1.3", 1)}},
			}},
	}
	for i, v := range cases {
		if err := v.Validate(); err == nil {
			t.Errorf("case %d: invalid VIP accepted: %+v", i, v)
		}
	}

	// Ports-only VIP (no default backends) is legal.
	portsOnly := VIP{Addr: packet.MustParseAddr("10.0.0.1"),
		Ports: []PortRule{{Port: 80, Backends: []Backend{bk("1.1.1.1", 1)}}}}
	if err := portsOnly.Validate(); err != nil {
		t.Fatalf("ports-only VIP rejected: %v", err)
	}
}

// TestValidateRefusesMoreBackendsThanAnIndexNames: a backend set of 65,536
// entries is the largest a 16-bit slot index can name; one more is refused,
// as the default set and as a port rule's.
func TestValidateRefusesMoreBackendsThanAnIndexNames(t *testing.T) {
	bs := make([]Backend, 1<<16+1)
	for i := range bs {
		bs[i] = Backend{Addr: packet.Addr(0x64000001 + i), Weight: 1}
	}
	vip := packet.MustParseAddr("10.0.0.1")
	for _, v := range []VIP{{Addr: vip, Backends: bs}, {Addr: vip, Ports: []PortRule{{Port: 80, Backends: bs}}}} {
		if err := v.Validate(); err == nil {
			t.Errorf("%d backends accepted", len(bs))
		}
	}
	for _, v := range []VIP{{Addr: vip, Backends: bs[:1<<16]}, {Addr: vip, Ports: []PortRule{{Port: 80, Backends: bs[:1<<16]}}}} {
		if err := v.Validate(); err != nil {
			t.Errorf("%d backends refused: %v", 1<<16, err)
		}
	}
}

// TestValidateRefusesZeroAddressBackend: a backend at 0.0.0.0 is refused in
// the default set and in a port rule, wherever in the list it stands.
func TestValidateRefusesZeroAddressBackend(t *testing.T) {
	vip := packet.MustParseAddr("10.0.0.1")
	for _, bs := range [][]Backend{
		{bk("0.0.0.0", 1)},
		{bk("100.0.0.1", 1), bk("0.0.0.0", 1)},
	} {
		for _, v := range []VIP{{Addr: vip, Backends: bs}, {Addr: vip, Ports: []PortRule{{Port: 80, Backends: bs}}}} {
			err := v.Validate()
			if err == nil || !strings.Contains(err.Error(), "zero address") {
				t.Errorf("%+v: got %v, want a zero-address refusal", v, err)
			}
		}
	}
}
