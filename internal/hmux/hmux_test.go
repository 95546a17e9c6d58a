package hmux

import (
	"errors"
	"math"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

var (
	vipAddr  = packet.MustParseAddr("10.0.0.1")
	selfAddr = packet.MustParseAddr("172.16.0.1")
)

func backends(addrs ...string) []service.Backend {
	out := make([]service.Backend, len(addrs))
	for i, a := range addrs {
		out[i] = service.Backend{Addr: packet.MustParseAddr(a), Weight: 1}
	}
	return out
}

func newMux(t testing.TB) *Mux {
	t.Helper()
	return New(DefaultConfig(selfAddr))
}

// processSampled hands ProcessSampled what an orchestration does: the flow it
// parsed at ingress and its hash — and counts the call, as Process does.
func processSampled(m *Mux, pkt, out []byte, sampled bool) (Result, error) {
	f, err := packet.Parse(pkt)
	if err != nil {
		return Result{}, err
	}
	var t Tally
	res, err := m.ProcessSampled(pkt, out, f, ecmp.Hash(f.Tuple), sampled, &t)
	m.tel.ctr.Flush(&t)
	return res, err
}

func vipPacket(i uint32, dstPort uint16) []byte {
	return packet.BuildTCP(packet.FiveTuple{
		Src: packet.Addr(0x14000000 + i), Dst: vipAddr,
		SrcPort: uint16(1024 + i%40000), DstPort: dstPort, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)
}

func TestAddVIPAndProcess(t *testing.T) {
	m := newMux(t)
	bs := backends("100.0.0.1", "100.0.0.2")
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	counts := make(map[packet.Addr]int)
	for i := uint32(0); i < 4000; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Encap]++
		// Verify the output is a valid IP-in-IP packet to the chosen DIP.
		inner, outer, err := packet.Decapsulate(res.Packet)
		if err != nil {
			t.Fatal(err)
		}
		if outer.Dst != res.Encap || outer.Src != selfAddr {
			t.Fatalf("outer header %v", outer)
		}
		it, err := packet.ExtractFiveTuple(inner)
		if err != nil || it.Dst != vipAddr {
			t.Fatalf("inner packet corrupted: %v %v", it, err)
		}
	}
	// Traffic split roughly equally between the two DIPs (§3.1).
	for _, b := range bs {
		frac := float64(counts[b.Addr]) / 4000
		if math.Abs(frac-0.5) > 0.05 {
			t.Fatalf("DIP %s got %.3f of flows, want ~0.5", b.Addr, frac)
		}
	}
}

func TestProcessNotOurVIP(t *testing.T) {
	m := newMux(t)
	if _, err := m.Process(vipPacket(0, 80), nil); err != ErrNotOurVIP {
		t.Fatalf("got %v, want ErrNotOurVIP", err)
	}
}

func TestProcessBadPacket(t *testing.T) {
	m := newMux(t)
	if _, err := m.Process([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestAddVIPValidation(t *testing.T) {
	m := newMux(t)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr}); err == nil {
		t.Fatal("VIP without backends accepted")
	}
	bs := backends("100.0.0.1")
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != ErrVIPExists {
		t.Fatalf("duplicate add: got %v", err)
	}
}

func TestRemoveVIPReleasesResources(t *testing.T) {
	m := newMux(t)
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3")
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.HostUsed != 1 || s.ECMPUsed != 3 || s.TunnelUsed != 3 {
		t.Fatalf("stats after add: %+v", s)
	}
	if err := m.RemoveVIP(vipAddr); err != nil {
		t.Fatal(err)
	}
	s = m.Stats()
	if s.HostUsed != 0 || s.ECMPUsed != 0 || s.TunnelUsed != 0 {
		t.Fatalf("resources leaked: %+v", s)
	}
	if err := m.RemoveVIP(vipAddr); err != ErrVIPNotFound {
		t.Fatalf("double remove: got %v", err)
	}
}

// TestSetReplacesInOneOp: an OpSet takes the VIP's old entry out before it
// admits the new one — so a config that fits only once the old one's
// entries are released is admitted, in one generation — and a config that
// does not fit at all leaves the VIP out of the tables, that removal
// published: a switch never serves a config its replacement was meant to
// end.
func TestSetReplacesInOneOp(t *testing.T) {
	cfg := DefaultConfig(selfAddr)
	cfg.ECMPTableSize = 4
	m := New(cfg)
	set := func(dips ...string) error {
		return steer.One(m.Apply, steer.Op{Kind: steer.OpSet, Addr: vipAddr, VIP: &service.VIP{Addr: vipAddr, Backends: backends(dips...)}})
	}
	if err := set("100.0.0.1", "100.0.0.2", "100.0.0.3"); err != nil {
		t.Fatal(err)
	}
	gen := m.Stats().Generation
	if err := set("100.0.0.4", "100.0.0.5", "100.0.0.6", "100.0.0.7"); err != nil {
		t.Fatalf("a set that fits once the old entries leave: %v", err)
	}
	if st := m.Stats(); st.ECMPUsed != 4 || st.TunnelUsed != 4 || st.Generation != gen+1 {
		t.Fatalf("after the set: %+v, want 4 members, 4 tunnels, one generation", st)
	}
	if d, err := m.Lookup(packet.FiveTuple{Src: 1, Dst: vipAddr, SrcPort: 1, DstPort: 80, Proto: packet.ProtoTCP}); err != nil || d < packet.MustParseAddr("100.0.0.4") {
		t.Fatalf("the set VIP resolves to %s, %v; want one of its new DIPs", d, err)
	}
	gen = m.Stats().Generation
	if err := set("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4", "100.0.0.5"); !errors.Is(err, ErrECMPTableFull) {
		t.Fatalf("a set that cannot fit: got %v, want ErrECMPTableFull", err)
	}
	if st := m.Stats(); m.HasVIP(vipAddr) || st.ECMPUsed != 0 || st.TunnelUsed != 0 || st.Generation != gen+1 {
		t.Fatalf("after a refused set: held %v, %+v; want the VIP out, its entries released, the removal published", m.HasVIP(vipAddr), st)
	}
}

func TestTunnelDedup(t *testing.T) {
	// Two VIPs sharing a DIP address (or one host with many VM DIPs) cost
	// one tunneling entry per unique address.
	m := newMux(t)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	vip2 := packet.MustParseAddr("10.0.0.2")
	if err := m.AddVIP(&service.VIP{Addr: vip2, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.TunnelUsed != 1 {
		t.Fatalf("tunnel entries = %d, want 1 (dedup)", s.TunnelUsed)
	}
	if s.ECMPUsed != 3 {
		t.Fatalf("ECMP entries = %d, want 3", s.ECMPUsed)
	}
	// Removing the first VIP must keep the shared tunnel entry alive.
	if err := m.RemoveVIP(vipAddr); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TunnelUsed != 1 {
		t.Fatal("shared tunnel entry dropped too early")
	}
	if err := m.RemoveVIP(vip2); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TunnelUsed != 0 {
		t.Fatal("tunnel entry leaked")
	}
}

func TestTableCapacityEnforcement(t *testing.T) {
	cfg := Config{SelfAddr: selfAddr, HostTableSize: 2, ECMPTableSize: 4, TunnelTableSize: 3}
	m := New(cfg)

	// ECMP limit: 5 backends > 4 entries.
	big := &service.VIP{Addr: vipAddr, Backends: backends("1.0.0.1", "1.0.0.2", "1.0.0.3", "1.0.0.4", "1.0.0.5")}
	if err := m.AddVIP(big); err != ErrECMPTableFull {
		t.Fatalf("got %v, want ErrECMPTableFull", err)
	}

	// Tunnel limit: 4 unique addrs > 3 entries (but 4 ECMP entries fit).
	tun := &service.VIP{Addr: vipAddr, Backends: backends("1.0.0.1", "1.0.0.2", "1.0.0.3", "1.0.0.4")}
	if err := m.AddVIP(tun); err != ErrTunnelTableFull {
		t.Fatalf("got %v, want ErrTunnelTableFull", err)
	}

	// Host limit.
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("1.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVIP(&service.VIP{Addr: packet.MustParseAddr("10.0.0.2"), Backends: backends("1.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVIP(&service.VIP{Addr: packet.MustParseAddr("10.0.0.3"), Backends: backends("1.0.0.1")}); err != ErrHostTableFull {
		t.Fatalf("got %v, want ErrHostTableFull", err)
	}
}

func TestFits(t *testing.T) {
	cfg := Config{SelfAddr: selfAddr, HostTableSize: 10, ECMPTableSize: 4, TunnelTableSize: 10}
	m := New(cfg)
	small := &service.VIP{Addr: vipAddr, Backends: backends("1.0.0.1", "1.0.0.2")}
	if err := m.AddVIP(small); err != nil {
		t.Fatalf("small VIP should fit: %v", err)
	}
	next := &service.VIP{Addr: packet.MustParseAddr("10.0.0.9"), Backends: backends("1.0.0.3", "1.0.0.4", "1.0.0.5")}
	if err := m.AddVIP(next); err != ErrECMPTableFull {
		t.Fatalf("3 more ECMP entries should not fit in 4-2: %v", err)
	}
}

func TestRemoveBackendResilient(t *testing.T) {
	m := newMux(t)
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4")
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	// Record pre-failure mapping.
	before := make(map[uint32]packet.Addr)
	for i := uint32(0); i < 3000; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = res.Encap
	}
	failed := packet.MustParseAddr("100.0.0.2")
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: failed}); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := uint32(0); i < 3000; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		if before[i] == failed {
			if res.Encap == failed {
				t.Fatal("flow still mapped to removed DIP")
			}
			moved++
		} else if res.Encap != before[i] {
			t.Fatalf("flow %d remapped %s→%s although its DIP survived", i, before[i], res.Encap)
		}
	}
	if moved == 0 {
		t.Fatal("vacuous test: no flows on the removed DIP")
	}
	// Resources released.
	s := m.Stats()
	if s.ECMPUsed != 3 || s.TunnelUsed != 3 {
		t.Fatalf("stats after backend removal: %+v", s)
	}
}

func TestRemoveBackendErrors(t *testing.T) {
	m := newMux(t)
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: 1}); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: packet.MustParseAddr("9.9.9.9")}); err == nil {
		t.Fatal("unknown DIP removal should error")
	}
	// Remove the same DIP twice.
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: packet.MustParseAddr("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: packet.MustParseAddr("100.0.0.1")}); err == nil {
		t.Fatal("double DIP removal should error")
	}
	// Removing the VIP afterwards must not corrupt refcounts.
	if err := m.RemoveVIP(vipAddr); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TunnelUsed != 0 {
		t.Fatal("tunnel refs corrupted by remove-backend + remove-vip")
	}
}

func TestPortBasedRules(t *testing.T) {
	m := newMux(t)
	v := &service.VIP{
		Addr:     vipAddr,
		Backends: backends("100.0.0.1"),
		Ports: []service.PortRule{
			{Port: 80, Backends: backends("100.0.1.1", "100.0.1.2")},
			{Port: 21, Backends: backends("100.0.2.1")},
		},
	}
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	httpSet := map[packet.Addr]bool{
		packet.MustParseAddr("100.0.1.1"): true,
		packet.MustParseAddr("100.0.1.2"): true,
	}
	for i := uint32(0); i < 500; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !httpSet[res.Encap] {
			t.Fatalf("HTTP flow sent to %s", res.Encap)
		}
	}
	res, err := m.Process(vipPacket(0, 21), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encap != packet.MustParseAddr("100.0.2.1") {
		t.Fatalf("FTP flow sent to %s", res.Encap)
	}
	// Unlisted port falls through to the default set.
	res, err = m.Process(vipPacket(0, 443), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encap != packet.MustParseAddr("100.0.0.1") {
		t.Fatalf("default flow sent to %s", res.Encap)
	}
}

func TestPortRuleResourceAccounting(t *testing.T) {
	m := newMux(t)
	v := &service.VIP{
		Addr:     vipAddr,
		Backends: backends("100.0.0.1"),
		Ports:    []service.PortRule{{Port: 80, Backends: backends("100.0.1.1", "100.0.1.2")}},
	}
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.ECMPUsed != 3 || s.TunnelUsed != 3 {
		t.Fatalf("stats: %+v", s)
	}
	if err := m.RemoveVIP(vipAddr); err != nil {
		t.Fatal(err)
	}
	s = m.Stats()
	if s.ECMPUsed != 0 || s.TunnelUsed != 0 {
		t.Fatalf("port rule resources leaked: %+v", s)
	}
}

func TestTIPIndirection(t *testing.T) {
	// Figure 7: VIP on switch 1 maps to TIPs; TIP switches hold the DIP
	// partitions and re-encapsulate at line rate.
	vipSwitch := New(DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	tipSwitch := New(DefaultConfig(packet.MustParseAddr("172.16.0.2")))

	tip := packet.MustParseAddr("20.0.0.1")
	if err := vipSwitch.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("20.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	partition := backends("100.0.0.1", "100.0.0.2", "100.0.0.3")
	if err := tipSwitch.AddTIP(tip, partition); err != nil {
		t.Fatal(err)
	}
	if st := tipSwitch.Stats(); st.TIPs != 1 || st.VIPs != 0 {
		t.Fatalf("TIP switch holds %d TIPs and %d VIPs, want the one TIP", st.TIPs, st.VIPs)
	}

	counts := make(map[packet.Addr]int)
	for i := uint32(0); i < 3000; i++ {
		in := vipPacket(i, 80)
		res1, err := vipSwitch.Process(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res1.Encap != tip {
			t.Fatalf("first hop encapped to %s, want TIP", res1.Encap)
		}
		res2, err := tipSwitch.Process(res1.Packet, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res2.ViaTIP {
			t.Fatal("second hop did not report TIP processing")
		}
		counts[res2.Encap]++
		// Inner packet is the ORIGINAL packet (single encap level).
		inner, outer, err := packet.Decapsulate(res2.Packet)
		if err != nil {
			t.Fatal(err)
		}
		if outer.Dst != res2.Encap {
			t.Fatal("outer dst mismatch")
		}
		it, err := packet.ExtractFiveTuple(inner)
		if err != nil || it.Dst != vipAddr {
			t.Fatalf("inner tuple %v, %v", it, err)
		}
	}
	for _, b := range partition {
		frac := float64(counts[b.Addr]) / 3000
		if math.Abs(frac-1.0/3) > 0.05 {
			t.Fatalf("partition DIP %s got %.3f", b.Addr, frac)
		}
	}
}

func TestTIPErrors(t *testing.T) {
	m := newMux(t)
	tip := packet.MustParseAddr("20.0.0.1")
	if err := m.AddTIP(tip, nil); err == nil {
		t.Fatal("empty TIP accepted")
	}
	if err := m.AddTIP(tip, backends("100.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTIP(tip, backends("100.0.0.2")); err != ErrVIPExists {
		t.Fatalf("duplicate TIP: got %v", err)
	}
	if err := m.AddVIP(&service.VIP{Addr: tip, Backends: backends("1.1.1.1")}); err != ErrVIPExists {
		t.Fatalf("VIP over TIP: got %v", err)
	}
}

func TestLookupMatchesProcess(t *testing.T) {
	m := newMux(t)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2", "100.0.0.3")}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 1000; i++ {
		pkt := vipPacket(i, 80)
		tuple, err := packet.ExtractFiveTuple(pkt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Lookup(tuple)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Process(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Encap != want {
			t.Fatalf("Lookup=%s Process=%s", want, res.Encap)
		}
	}
}

func TestWeightedBackends(t *testing.T) {
	m := newMux(t)
	v := &service.VIP{Addr: vipAddr, Backends: []service.Backend{
		{Addr: packet.MustParseAddr("100.0.0.1"), Weight: 3},
		{Addr: packet.MustParseAddr("100.0.0.2"), Weight: 1},
	}}
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	counts := make(map[packet.Addr]int)
	for i := uint32(0); i < 8000; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Encap]++
	}
	frac := float64(counts[packet.MustParseAddr("100.0.0.1")]) / 8000
	if math.Abs(frac-0.75) > 0.04 {
		t.Fatalf("weighted DIP got %.3f of flows, want ~0.75", frac)
	}
}

// TestHashSharedWithSMuxSemantics verifies the load-balancer-wide invariant:
// any component using ecmp.Hash over the same backend list in the same order
// gets the same DIP for the same tuple. (The SMux test suite asserts the
// mirror-image property.)
func TestHashSharedSemantics(t *testing.T) {
	m1 := New(DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	m2 := New(DefaultConfig(packet.MustParseAddr("172.16.0.99")))
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4", "100.0.0.5")
	for _, m := range []*Mux{m1, m2} {
		if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 2000; i++ {
		tuple, _ := packet.ExtractFiveTuple(vipPacket(i, 80))
		a, err1 := m1.Lookup(tuple)
		b, err2 := m2.Lookup(tuple)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("two HMuxes disagree for tuple %v: %s vs %s", tuple, a, b)
		}
	}
}

func TestVIPsList(t *testing.T) {
	m := newMux(t)
	addrs := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"}
	for _, a := range addrs {
		if err := m.AddVIP(&service.VIP{Addr: packet.MustParseAddr(a), Backends: backends("100.0.0.1")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().VIPs; got != 3 {
		t.Fatalf("Stats().VIPs = %d", got)
	}
	if !m.HasVIP(packet.MustParseAddr("10.0.0.2")) {
		t.Fatal("HasVIP false for programmed VIP")
	}
	if m.HasVIP(packet.MustParseAddr("10.9.9.9")) {
		t.Fatal("HasVIP true for unknown VIP")
	}
}

func TestProcessZeroAlloc(t *testing.T) {
	m := newMux(t)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	pkt := vipPacket(1, 80)
	buf := make([]byte, 0, 2048)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Process(pkt, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Process allocates %.1f times per packet; dataplane must be allocation-free", allocs)
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := New(Config{SelfAddr: selfAddr})
	s := m.Stats()
	if s.HostCap != DefaultHostTableSize || s.ECMPCap != DefaultECMPTableSize || s.TunnelCap != DefaultTunnelTableSize {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

func TestLargeFanoutCapacity(t *testing.T) {
	// Paper §5.2: 512 TIPs × 512 DIPs = 262,144 DIPs for one VIP. Verify the
	// arithmetic at the table level: a VIP can reference up to
	// TunnelTableSize TIPs on the VIP switch.
	m := newMux(t)
	bs := make([]service.Backend, DefaultTunnelTableSize)
	for i := range bs {
		bs[i] = service.Backend{Addr: packet.AddrFrom4(20, 0, byte(i>>8), byte(i)), Weight: 1}
	}
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TunnelUsed != DefaultTunnelTableSize {
		t.Fatal("tunnel table should be exactly full")
	}
	if err := m.AddVIP(&service.VIP{Addr: packet.MustParseAddr("10.0.0.2"), Backends: backends("200.0.0.1")}); err != ErrTunnelTableFull {
		t.Fatalf("got %v, want ErrTunnelTableFull", err)
	}
}

func BenchmarkProcess(b *testing.B) {
	m := New(DefaultConfig(selfAddr))
	bs := make([]service.Backend, 16)
	for i := range bs {
		bs[i] = service.Backend{Addr: packet.AddrFrom4(100, 0, 0, byte(i+1)), Weight: 1}
	}
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		b.Fatal(err)
	}
	pkt := vipPacket(7, 80)
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		if _, err := m.Process(pkt, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	m := New(DefaultConfig(selfAddr))
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}); err != nil {
		b.Fatal(err)
	}
	tuple := packet.FiveTuple{Src: 1, Dst: vipAddr, SrcPort: 2, DstPort: 80, Proto: packet.ProtoTCP}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Lookup(tuple); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard against accidental divergence between the mux's selection and the
// shared one: the ecmp flow hash over the VIP's steer.Entry slots.
func TestGroupConsistencyWithECMPPackage(t *testing.T) {
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3")
	v := &service.VIP{Addr: vipAddr, Backends: bs}
	m := newMux(t)
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	e := steer.NewEntry(v, steer.ModeStateless)
	for i := uint32(0); i < 1000; i++ {
		tuple, _ := packet.ExtractFiveTuple(vipPacket(i, 80))
		want, err := e.DIP(tuple, ecmp.Hash(tuple))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Lookup(tuple)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("mux picked %s for %v, the shared hash over the VIP's slots %s", got, tuple, want)
		}
	}
}

func TestECMPGroupTableCapacity(t *testing.T) {
	cfg := Config{SelfAddr: selfAddr, ECMPGroupTableSize: 2}
	m := New(cfg)
	if err := m.AddVIP(&service.VIP{Addr: packet.MustParseAddr("10.0.0.1"), Backends: backends("1.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVIP(&service.VIP{Addr: packet.MustParseAddr("10.0.0.2"), Backends: backends("1.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVIP(&service.VIP{Addr: packet.MustParseAddr("10.0.0.3"), Backends: backends("1.0.0.3")}); err != ErrECMPGroupTableFull {
		t.Fatalf("got %v, want ErrECMPGroupTableFull", err)
	}
	// A VIP with a port rule needs TWO groups: refuse when only one is left.
	if err := m.RemoveVIP(packet.MustParseAddr("10.0.0.2")); err != nil {
		t.Fatal(err)
	}
	withPorts := &service.VIP{
		Addr:     packet.MustParseAddr("10.0.0.4"),
		Backends: backends("1.0.0.4"),
		Ports:    []service.PortRule{{Port: 80, Backends: backends("1.0.0.5")}},
	}
	if err := m.AddVIP(withPorts); err != ErrECMPGroupTableFull {
		t.Fatalf("got %v, want ErrECMPGroupTableFull", err)
	}
	s := m.Stats()
	if s.GroupsUsed != 1 || s.GroupsCap != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestACLTableCapacity(t *testing.T) {
	cfg := Config{SelfAddr: selfAddr, ACLTableSize: 1}
	m := New(cfg)
	two := &service.VIP{
		Addr:     vipAddr,
		Backends: backends("1.0.0.1"),
		Ports: []service.PortRule{
			{Port: 80, Backends: backends("1.0.0.2")},
			{Port: 21, Backends: backends("1.0.0.3")},
		},
	}
	if err := m.AddVIP(two); err != ErrACLTableFull {
		t.Fatalf("got %v, want ErrACLTableFull", err)
	}
	one := &service.VIP{
		Addr:     vipAddr,
		Backends: backends("1.0.0.1"),
		Ports:    []service.PortRule{{Port: 80, Backends: backends("1.0.0.2")}},
	}
	if err := m.AddVIP(one); err != nil {
		t.Fatal(err)
	}
	if m.Stats().ACLUsed != 1 {
		t.Fatalf("ACLUsed = %d", m.Stats().ACLUsed)
	}
	if err := m.RemoveVIP(vipAddr); err != nil {
		t.Fatal(err)
	}
	if m.Stats().ACLUsed != 0 || m.Stats().GroupsUsed != 0 {
		t.Fatalf("resources leaked: %+v", m.Stats())
	}
}

func TestGroupAccountingWithTIPs(t *testing.T) {
	m := newMux(t)
	if err := m.AddTIP(packet.MustParseAddr("20.0.0.1"), backends("1.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if m.Stats().GroupsUsed != 1 {
		t.Fatalf("TIP should consume one group: %+v", m.Stats())
	}
}

// TestDropReasons verifies Process classifies every error path under a
// distinct drop counter while preserving the error identities callers
// depend on — and that a table miss is not one of them: it is a
// fall-through, counted as a packet and nothing else.
func TestDropReasons(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	m := newMux(t)
	m.SetTelemetry(reg, rec, 7)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}

	// Unknown VIP: the caller falls through on the error; no drop is counted.
	other := packet.MustParseAddr("10.9.9.9")
	pkt := packet.BuildTCP(packet.FiveTuple{
		Src: packet.MustParseAddr("30.0.0.1"), Dst: other,
		SrcPort: 1024, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)
	if _, err := m.Process(pkt, nil); err != ErrNotOurVIP {
		t.Fatalf("got %v, want ErrNotOurVIP", err)
	}

	// Malformed packet.
	if _, err := m.Process([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("malformed packet must error")
	}

	// No tunnel entry: remove the only DIP, leaving an empty ECMP group.
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: packet.MustParseAddr("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	_, err := m.Process(vipPacket(0, 80), nil)
	if !errors.Is(err, ErrNoTunnelEntry) {
		t.Fatalf("got %v, want ErrNoTunnelEntry", err)
	}

	for name, want := range map[string]uint64{
		"hmux.drops.malformed":       1,
		"hmux.drops.no_tunnel_entry": 1,
		"hmux.packets":               3,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	drops := 0
	for _, e := range rec.Snapshot() {
		if e.Kind == telemetry.KindDrop {
			drops++
			if e.Node != 7 {
				t.Errorf("drop event node = %d, want 7", e.Node)
			}
		}
	}
	if drops != 2 {
		t.Errorf("recorded %d drop events, want 2 (the miss is not one)", drops)
	}
	for _, c := range reg.Counters() {
		if c.Name() == "hmux.drops.unknown_vip" {
			t.Error("hmux.drops.unknown_vip is registered: a table miss is not a drop")
		}
	}
}

// TestProcessTelemetryCounters checks the happy-path counters and the
// sampled pipeline trace.
func TestProcessTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(256)
	m := newMux(t)
	m.SetTelemetry(reg, rec, 3)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 10; i++ {
		if _, err := processSampled(m, vipPacket(i, 80), nil, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("hmux.packets").Value(); got != 10 {
		t.Fatalf("hmux.packets = %d, want 10", got)
	}
	if got := reg.Counter("hmux.encapped").Value(); got != 10 {
		t.Fatalf("hmux.encapped = %d, want 10", got)
	}
	// Every sampled packet must leave a complete pipeline trace:
	// packet-in → vip-lookup → ecmp-pick → encap.
	var kinds []telemetry.Kind
	for _, e := range rec.Snapshot() {
		kinds = append(kinds, e.Kind)
	}
	want := []telemetry.Kind{
		telemetry.KindPacketIn, telemetry.KindVIPLookup,
		telemetry.KindECMPPick, telemetry.KindEncap,
	}
	if len(kinds) != 40 {
		t.Fatalf("recorded %d events, want 40", len(kinds))
	}
	for i, k := range kinds {
		if k != want[i%4] {
			t.Fatalf("event %d kind = %v, want %v", i, k, want[i%4])
		}
	}
}

// TestProcessZeroAllocWithTelemetry enforces that instrumentation keeps the
// dataplane allocation-free, sampled or not.
func TestProcessZeroAllocWithTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1024)
	rec.SetSampleEvery(8)
	m := newMux(t)
	m.SetTelemetry(reg, rec, 1)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	pkt := vipPacket(1, 80)
	buf := make([]byte, 0, 2048)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := processSampled(m, pkt, buf[:0], rec.Sample()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Process with telemetry: %v allocs/op, want 0", allocs)
	}
}

// TestDropReasonLabels covers the drop paths TestDropReasons cannot reach
// with ordinary packets: an encapsulation overflow on the VIP path and a
// malformed inner packet on the TIP decap/re-encap path. Each must increment
// exactly its labeled counter and leave a KindDrop trace event. (The TIP
// no-backend and TIP encap-error branches are unreachable with wire-valid
// input: AddTIP rejects empty backend sets, and an inner large enough to
// overflow re-encapsulation cannot fit inside a valid outer packet.)
func TestDropReasonLabels(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	m := newMux(t)
	m.SetTelemetry(reg, rec, 4)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	tip := packet.MustParseAddr("20.0.0.1")
	if err := m.AddTIP(tip, backends("100.0.0.2")); err != nil {
		t.Fatal(err)
	}

	t.Run("encap_error", func(t *testing.T) {
		// 20 (IP) + 20 (TCP) + 65480 payload = 65520 bytes: a valid IPv4
		// packet that no longer fits once a 20-byte outer header is added.
		jumbo := packet.BuildTCP(packet.FiveTuple{
			Src: packet.MustParseAddr("30.0.0.1"), Dst: vipAddr,
			SrcPort: 1024, DstPort: 80, Proto: packet.ProtoTCP,
		}, packet.TCPSyn, make([]byte, 65480))
		if _, err := m.Process(jumbo, nil); err == nil {
			t.Fatal("oversized packet must fail encapsulation")
		}
		if got := reg.Counter("hmux.drops.encap_error").Value(); got != 1 {
			t.Fatalf("hmux.drops.encap_error = %d, want 1", got)
		}
	})

	t.Run("tip_inner_malformed", func(t *testing.T) {
		// A wire-valid IP-in-IP packet addressed to the TIP whose inner
		// bytes are not a parseable IPv4 packet.
		garbage := []byte{0xde, 0xad, 0xbe, 0xef}
		pkt, err := packet.Encapsulate(nil, selfAddr, tip, garbage, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Process(pkt, nil); err == nil {
			t.Fatal("garbage inner must be rejected")
		}
		if got := reg.Counter("hmux.drops.malformed").Value(); got != 1 {
			t.Fatalf("hmux.drops.malformed = %d, want 1", got)
		}
	})

	drops := 0
	for _, e := range rec.Snapshot() {
		if e.Kind == telemetry.KindDrop {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("recorded %d drop events, want 2", drops)
	}
}
