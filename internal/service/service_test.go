package service

import (
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
