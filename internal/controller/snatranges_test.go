package controller

import (
	"testing"

	"duet/internal/hmux"
	"duet/internal/hostagent"
	"duet/internal/packet"
	"duet/internal/service"
)

func TestSNATRangesDisjoint(t *testing.T) {
	s := NewSNATRanges()
	vip := packet.MustParseAddr("10.0.0.1")
	seen := make(map[uint16]packet.Addr)
	for d := 0; d < 8; d++ {
		dip := packet.AddrFrom4(100, 0, 0, byte(d+1))
		for blocks := 0; blocks < 2; blocks++ {
			lo, hi, err := s.Allocate(vip, dip)
			if err != nil {
				t.Fatal(err)
			}
			if int(hi)-int(lo)+1 != SNATBlockSize {
				t.Fatalf("block size %d", int(hi)-int(lo)+1)
			}
			for p := uint32(lo); p <= uint32(hi); p++ {
				if owner, dup := seen[uint16(p)]; dup {
					t.Fatalf("port %d issued to both %s and %s", p, owner, dip)
				}
				seen[uint16(p)] = dip
			}
		}
		if got := s.spaces[vip].blocks[dip]; len(got) != 2 {
			t.Fatalf("blocks on record = %v", got)
		}
	}
}

func TestSNATRangesExhaustion(t *testing.T) {
	s := NewSNATRanges()
	vip := packet.MustParseAddr("10.0.0.1")
	dip := packet.MustParseAddr("100.0.0.1")
	// 32768 ports / 1024 per block = 32 blocks.
	for i := 0; i < 32; i++ {
		if _, _, err := s.Allocate(vip, dip); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	if _, _, err := s.Allocate(vip, dip); err != ErrPortSpaceExhausted {
		t.Fatalf("got %v, want ErrPortSpaceExhausted", err)
	}
	// Separate VIPs have separate spaces.
	if _, _, err := s.Allocate(packet.MustParseAddr("10.0.0.2"), dip); err != nil {
		t.Fatal(err)
	}
}

func TestSNATReleaseForgetsBlocks(t *testing.T) {
	s := NewSNATRanges()
	vip := packet.MustParseAddr("10.0.0.1")
	dip := packet.MustParseAddr("100.0.0.1")
	if _, _, err := s.Allocate(vip, dip); err != nil {
		t.Fatal(err)
	}
	s.Release(vip, dip)
	if got := s.spaces[vip].blocks[dip]; got != nil {
		t.Fatalf("blocks after release: %v", got)
	}
	// Release of unknown VIP/DIP is a no-op.
	s.Release(packet.MustParseAddr("9.9.9.9"), dip)
}

// TestControllerSNATEndToEnd drives the full §5.2 loop: controller hands a
// block to the host agent's SNAT allocator; allocations are hash-consistent
// against the HMux; when the block runs dry the agent asks for another.
func TestControllerSNATEndToEnd(t *testing.T) {
	_, w, ct := world(t, 20, 2e10, 20)
	vip := w.VIPs[0].Addr
	v, _ := ct.Cluster.VIP(vip)
	if len(v.Backends) < 2 {
		t.Skip("need a multi-DIP VIP")
	}
	self := v.Backends[0].Addr

	snat := hostagent.NewSNAT(vip, self, ct.Cluster.SMuxes[0].Steer())
	lo, hi, err := ct.AllocateSNATRange(vip, self)
	if err != nil {
		t.Fatal(err)
	}
	snat.AssignRange(lo, hi)

	// The HMux the VIP would ride.
	hm := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.9.9")))
	if err := hm.AddVIP(&service.VIP{Addr: vip, Backends: v.Backends}); err != nil {
		t.Fatal(err)
	}

	remote := packet.MustParseAddr("8.8.4.4")
	allocated := 0
	for i := 0; allocated < 600; i++ {
		port, err := snat.AllocatePort(remote, uint16(1000+i), packet.ProtoTCP)
		if err == hostagent.ErrPortsExhausted {
			lo, hi, err = ct.AllocateSNATRange(vip, self)
			if err != nil {
				t.Fatal(err)
			}
			snat.AssignRange(lo, hi)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		allocated++
		resp := packet.BuildTCP(packet.FiveTuple{
			Src: remote, Dst: vip, SrcPort: uint16(1000 + i), DstPort: port, Proto: packet.ProtoTCP,
		}, packet.TCPAck, nil)
		res, err := hm.Process(resp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Encap != self {
			t.Fatalf("response tunneled to %s, want %s", res.Encap, self)
		}
	}
	// With k DIPs only ~1/k of ports in a block match this DIP, so refills
	// must have happened for 600 allocations from 1024-port blocks.
	if len(v.Backends) >= 3 && ct.snat.spaces[vip].blocks[self] == nil {
		t.Fatal("no blocks recorded")
	}
}

func TestAllocateSNATRangeValidation(t *testing.T) {
	_, w, ct := world(t, 10, 1e10, 21)
	vip := w.VIPs[0].Addr
	if _, _, err := ct.AllocateSNATRange(packet.MustParseAddr("9.9.9.9"), 1); err == nil {
		t.Fatal("unknown VIP accepted")
	}
	if _, _, err := ct.AllocateSNATRange(vip, packet.MustParseAddr("9.9.9.9")); err != ErrUnknownDIPForSNAT {
		t.Fatalf("foreign DIP: %v", err)
	}
	v, _ := ct.Cluster.VIP(vip)
	if _, _, err := ct.AllocateSNATRange(vip, v.Backends[0].Addr); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveDIPReleasesSNAT(t *testing.T) {
	_, w, ct := world(t, 10, 1e10, 22)
	vip := w.VIPs[0].Addr
	v, _ := ct.Cluster.VIP(vip)
	if len(v.Backends) < 2 {
		t.Skip("need ≥2 backends")
	}
	dip := v.Backends[0].Addr
	if _, _, err := ct.AllocateSNATRange(vip, dip); err != nil {
		t.Fatal(err)
	}
	if err := ct.RemoveDIP(vip, dip); err != nil {
		t.Fatal(err)
	}
	if got := ct.snat.spaces[vip].blocks[dip]; got != nil {
		t.Fatalf("blocks survived DIP removal: %v", got)
	}
}
