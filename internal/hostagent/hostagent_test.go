package hostagent

import (
	"bytes"
	"errors"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
)

var (
	vip  = packet.MustParseAddr("10.0.0.1")
	host = packet.MustParseAddr("20.0.0.1")
	dip  = packet.MustParseAddr("100.0.0.1")
)

func encapTo(t *testing.T, outerDst packet.Addr, tuple packet.FiveTuple) []byte {
	t.Helper()
	inner := packet.BuildTCP(tuple, packet.TCPSyn, []byte("req"))
	out, err := packet.Encapsulate(nil, packet.MustParseAddr("172.16.0.1"), outerDst, inner, 64)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func clientTuple(i uint32) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.Addr(0x30000000 + i), Dst: vip,
		SrcPort: uint16(2000 + i), DstPort: 80, Proto: packet.ProtoTCP,
	}
}

func TestReceiveRewritesToDIP(t *testing.T) {
	a := New(host)
	if err := a.RegisterDIP(vip, dip); err != nil {
		t.Fatal(err)
	}
	d, err := a.Receive(encapTo(t, dip, clientTuple(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.VIP != vip || d.DIP != dip {
		t.Fatalf("delivery %+v", d)
	}
	var ip packet.IPv4
	if err := ip.DecodeFromBytes(d.Packet); err != nil {
		t.Fatal(err)
	}
	if ip.Dst != dip {
		t.Fatalf("inner dst = %s, want %s", ip.Dst, dip)
	}
}

func TestReceiveUnknownVIP(t *testing.T) {
	a := New(host)
	if _, err := a.Receive(encapTo(t, host, clientTuple(1)), nil); err != ErrNotForThisHost {
		t.Fatalf("got %v", err)
	}
}

func TestReceiveNotEncapsulated(t *testing.T) {
	a := New(host)
	plain := packet.BuildTCP(clientTuple(0), packet.TCPSyn, nil)
	if _, err := a.Receive(plain, nil); err == nil {
		t.Fatal("plain packet accepted")
	}
}

// TestVirtualizedMultiDIP reproduces Figure 6: one host runs several VM DIPs
// for the same VIP; the HMux encapsulates to the host IP with one tunnel
// entry per DIP, and the HA fans packets out across the local VMs by the
// shared hash.
func TestVirtualizedMultiDIP(t *testing.T) {
	a := New(host)
	vm1 := packet.MustParseAddr("100.0.0.1")
	vm2 := packet.MustParseAddr("100.0.0.2")
	if err := a.RegisterDIP(vip, vm1); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterDIP(vip, vm2); err != nil {
		t.Fatal(err)
	}
	counts := make(map[packet.Addr]int)
	for i := uint32(0); i < 2000; i++ {
		d, err := a.Receive(encapTo(t, host, clientTuple(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[d.DIP]++
		// Same tuple must always pick the same VM.
		d2, err := a.Receive(encapTo(t, host, clientTuple(i)), nil)
		if err != nil || d2.DIP != d.DIP {
			t.Fatal("VM selection not deterministic")
		}
	}
	if counts[vm1] == 0 || counts[vm2] == 0 {
		t.Fatalf("hash fan-out degenerate: %v", counts)
	}
}

func TestRegisterDuplicateAndConflict(t *testing.T) {
	a := New(host)
	if err := a.RegisterDIP(vip, dip); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-register.
	if err := a.RegisterDIP(vip, dip); err != nil {
		t.Fatal(err)
	}
	if got := len(a.LocalDIPs(vip)); got != 1 {
		t.Fatalf("duplicate registration created %d entries", got)
	}
	// Same DIP under a different VIP conflicts.
	if err := a.RegisterDIP(packet.MustParseAddr("10.0.0.2"), dip); err == nil {
		t.Fatal("conflicting registration accepted")
	}
}

func TestUnregisterDIP(t *testing.T) {
	a := New(host)
	if err := a.RegisterDIP(vip, dip); err != nil {
		t.Fatal(err)
	}
	if err := a.UnregisterDIP(dip); err != nil {
		t.Fatal(err)
	}
	if err := a.UnregisterDIP(dip); err != ErrUnknownDIP {
		t.Fatalf("got %v", err)
	}
	if _, err := a.Receive(encapTo(t, dip, clientTuple(0)), nil); err != ErrNotForThisHost {
		t.Fatalf("got %v", err)
	}
}

func TestSendDSR(t *testing.T) {
	a := New(host)
	if err := a.RegisterDIP(vip, dip); err != nil {
		t.Fatal(err)
	}
	resp := packet.BuildTCP(packet.FiveTuple{
		Src: dip, Dst: packet.MustParseAddr("30.0.0.1"),
		SrcPort: 80, DstPort: 5555, Proto: packet.ProtoTCP,
	}, packet.TCPAck, []byte("response"))
	out, err := a.SendDSR(resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ip packet.IPv4
	if err := ip.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if ip.Src != vip {
		t.Fatalf("DSR src = %s, want VIP %s", ip.Src, vip)
	}
	// Behind a non-empty out the response is appended: the earlier packet is
	// untouched and exactly this one comes back (Receive's contract).
	buf := append(make([]byte, 0, 256), resp...)
	again, err := a.SendDSR(resp, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, out) || !bytes.Equal(buf, resp) {
		t.Fatalf("appended DSR = %x behind prefix %x, want %x behind the untouched %x", again, buf, out, resp)
	}
	// Unknown source DIP rejected.
	bad := packet.BuildTCP(packet.FiveTuple{Src: packet.MustParseAddr("9.9.9.9"), Dst: 1, Proto: packet.ProtoTCP}, 0, nil)
	if _, err := a.SendDSR(bad, nil); err != ErrUnknownDIP {
		t.Fatalf("got %v", err)
	}
}

func TestHealth(t *testing.T) {
	a := New(host)
	if err := a.SetHealth(dip, false); err != ErrUnknownDIP {
		t.Fatalf("got %v", err)
	}
	if err := a.RegisterDIP(vip, dip); err != nil {
		t.Fatal(err)
	}
	if !a.Healthy(dip) {
		t.Fatal("fresh DIP should be healthy")
	}
	if err := a.SetHealth(dip, false); err != nil {
		t.Fatal(err)
	}
	if a.Healthy(dip) {
		t.Fatal("health not recorded")
	}
}

// TestSNATHashConsistency is the §5.2 SNAT property: the allocated port makes
// the inbound response hash to our own DIP on a real HMux.
func TestSNATHashConsistency(t *testing.T) {
	backends := []service.Backend{
		{Addr: packet.MustParseAddr("100.0.0.1"), Weight: 1},
		{Addr: packet.MustParseAddr("100.0.0.2"), Weight: 1},
		{Addr: packet.MustParseAddr("100.0.0.3"), Weight: 1},
		{Addr: packet.MustParseAddr("100.0.0.4"), Weight: 1},
	}
	hm := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	if err := hm.AddVIP(&service.VIP{Addr: vip, Backends: backends}); err != nil {
		t.Fatal(err)
	}

	self := packet.MustParseAddr("100.0.0.3")
	s := NewSNAT(vip, self, vipTable(t, backends))
	s.AssignRange(40000, 45000)

	remote := packet.MustParseAddr("8.8.8.8")
	for i := 0; i < 50; i++ {
		port, err := s.AllocatePort(remote, uint16(443+i), packet.ProtoTCP)
		if err != nil {
			t.Fatal(err)
		}
		// Build the response packet as it would arrive at the HMux and check
		// it is tunneled to our DIP.
		resp := packet.BuildTCP(packet.FiveTuple{
			Src: remote, Dst: vip, SrcPort: uint16(443 + i), DstPort: port, Proto: packet.ProtoTCP,
		}, packet.TCPAck, nil)
		res, err := hm.Process(resp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Encap != self {
			t.Fatalf("response for port %d tunneled to %s, want %s", port, res.Encap, self)
		}
	}
	if s.Used() != 50 {
		t.Fatalf("used = %d", s.Used())
	}
	// Probe efficiency: expected ~len(backends) probes per allocation.
	if avg := float64(s.Probed()) / 50; avg > 20 {
		t.Fatalf("SNAT probing too expensive: %.1f probes/alloc", avg)
	}
}

// vipTable is a steer table holding vip over backends, as an SMux does.
func vipTable(tb testing.TB, backends []service.Backend) *steer.Table {
	tb.Helper()
	tbl := steer.NewTable(steer.Config{})
	if err := tbl.Add(&service.VIP{Addr: vip, Backends: backends}); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestSNATFollowsInPlaceRemoval: after another DIP of the VIP is removed in
// place — its slots handed round the survivors, the rest kept — every port
// the allocator hands out still brings the response to self on the muxes'
// table. A predictor built from the shortened list would disagree on most
// slots (the check at the end keeps the test from passing vacuously).
func TestSNATFollowsInPlaceRemoval(t *testing.T) {
	backends := make([]service.Backend, 8)
	for i := range backends {
		backends[i] = service.Backend{Addr: packet.AddrFrom4(100, 0, 0, byte(i+1)), Weight: 1}
	}
	self, gone := backends[5].Addr, backends[3].Addr
	tbl := vipTable(t, backends)
	s := NewSNAT(vip, self, tbl)
	s.AssignRange(40000, 60000)
	if err := steer.One(tbl.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vip, DIP: gone}); err != nil {
		t.Fatal(err)
	}
	rebuilt := vipTable(t, append(backends[:3:3], backends[4:]...))
	remote, disagree := packet.MustParseAddr("8.8.8.8"), 0
	for i := 0; i < 200; i++ {
		port, err := s.AllocatePort(remote, uint16(443+i), packet.ProtoTCP)
		if err != nil {
			t.Fatal(err)
		}
		resp := packet.FiveTuple{Src: remote, Dst: vip, SrcPort: uint16(443 + i), DstPort: port, Proto: packet.ProtoTCP}
		if d, err := tbl.Lookup(resp); err != nil || d != self {
			t.Fatalf("port %d: the response resolves to %s (%v), want %s", port, d, err, self)
		}
		if d, _ := rebuilt.Lookup(resp); d != self {
			disagree++
		}
	}
	if disagree < 100 {
		t.Fatalf("a table rebuilt from the shortened list disagrees on %d of 200 ports; the removal left too few slots moved to tell", disagree)
	}
}

func TestSNATPortLifecycle(t *testing.T) {
	backends := []service.Backend{{Addr: dip, Weight: 1}}
	s := NewSNAT(vip, dip, vipTable(t, backends))

	if _, err := s.AllocatePort(1, 1, packet.ProtoTCP); err != ErrNoRange {
		t.Fatalf("got %v", err)
	}
	s.AssignRange(5000, 5001) // two ports (single-DIP: every port matches)
	p1, err := s.AllocatePort(1, 1, packet.ProtoTCP)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.AllocatePort(1, 1, packet.ProtoTCP)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("same port allocated twice")
	}
	if _, err := s.AllocatePort(1, 1, packet.ProtoTCP); err != ErrPortsExhausted {
		t.Fatalf("got %v", err)
	}
	// Controller assigns a fresh range → allocation works again.
	s.AssignRange(6001, 6000) // reversed bounds are normalized
	if _, err := s.AllocatePort(1, 1, packet.ProtoTCP); err != nil {
		t.Fatal(err)
	}
	// Releasing frees the port for reuse.
	s.ReleasePort(p1)
	got, err := s.AllocatePort(1, 1, packet.ProtoTCP)
	if err != nil {
		t.Fatal(err)
	}
	if got != p1 {
		t.Fatalf("released port not reused: got %d want %d", got, p1)
	}
	// A table that does not hold the VIP predicts nothing.
	s = NewSNAT(vip, dip, steer.NewTable(steer.Config{}))
	s.AssignRange(5000, 5001)
	if _, err := s.AllocatePort(1, 1, packet.ProtoTCP); !errors.Is(err, steer.ErrVIPNotFound) {
		t.Fatalf("VIP absent from the table: got %v", err)
	}
}

func TestLocalVMSelectionMatchesSharedHash(t *testing.T) {
	// The HA's VM selection uses the same ecmp.Hash as the muxes.
	a := New(host)
	vms := []packet.Addr{
		packet.MustParseAddr("100.0.0.1"),
		packet.MustParseAddr("100.0.0.2"),
		packet.MustParseAddr("100.0.0.3"),
	}
	for _, vm := range vms {
		if err := a.RegisterDIP(vip, vm); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 500; i++ {
		tuple := clientTuple(i)
		d, err := a.Receive(encapTo(t, host, tuple), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := vms[ecmp.Hash(tuple)%uint64(len(vms))]
		if d.DIP != want {
			t.Fatalf("VM selection diverged from shared hash for %v", tuple)
		}
	}
}

func BenchmarkReceive(b *testing.B) {
	a := New(host)
	if err := a.RegisterDIP(vip, dip); err != nil {
		b.Fatal(err)
	}
	inner := packet.BuildTCP(clientTuple(3), packet.TCPSyn, make([]byte, 512))
	pkt, err := packet.Encapsulate(nil, 1, dip, inner, 64)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		if _, err := a.Receive(pkt, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSNATAllocate(b *testing.B) {
	backends := make([]service.Backend, 8)
	for i := range backends {
		backends[i] = service.Backend{Addr: packet.AddrFrom4(100, 0, 0, byte(i+1)), Weight: 1}
	}
	s := NewSNAT(vip, backends[3].Addr, vipTable(b, backends))
	s.AssignRange(1024, 65000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := s.AllocatePort(packet.Addr(uint32(i)), 443, packet.ProtoTCP)
		if err != nil {
			b.Fatal(err)
		}
		s.ReleasePort(p)
	}
}
