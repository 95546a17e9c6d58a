package core

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"duet/internal/bgp"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/topology"
)

func testCluster(t testing.TB) *Cluster {
	t.Helper()
	cfg := Config{
		Topology:  topology.TestbedConfig(),
		NumSMuxes: 3,
		Aggregate: packet.MustParsePrefix("10.0.0.0/8"),
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkVIP(i int, dips ...string) *service.VIP {
	bs := make([]service.Backend, len(dips))
	for j, d := range dips {
		bs[j] = service.Backend{Addr: packet.MustParseAddr(d), Weight: 1}
	}
	return &service.VIP{Addr: packet.AddrFrom4(10, 0, 0, byte(i+1)), Backends: bs}
}

// reconfigure places a VIP where it is with its default backend set edited:
// a Place target of one, the controller's AddDIP and RemoveDIP without their
// policy.
func reconfigure(c *Cluster, vip packet.Addr, edit func([]service.Backend) []service.Backend) error {
	v, ok := c.VIP(vip)
	if !ok {
		return ErrVIPUnknown
	}
	next := *v
	next.Backends = edit(slices.Clone(v.Backends))
	return c.Place(Target{Addr: vip, VIP: &next, Stay: true})
}

// addBackend appends a backend to a VIP's default set.
func addBackend(c *Cluster, vip packet.Addr, b service.Backend) error {
	return reconfigure(c, vip, func(bs []service.Backend) []service.Backend { return append(bs, b) })
}

// removeBackend takes a DIP's first listing out of a VIP's default set.
func removeBackend(c *Cluster, vip, dip packet.Addr) error {
	return reconfigure(c, vip, func(bs []service.Backend) []service.Backend {
		i := slices.IndexFunc(bs, func(b service.Backend) bool { return b.Addr == dip })
		return slices.Delete(bs, i, i+1)
	})
}

func clientPkt(vip packet.Addr, i uint32) []byte {
	return packet.BuildTCP(packet.FiveTuple{
		Src: packet.AddrFrom4(30, 0, byte(i>>8), byte(i)), Dst: vip,
		SrcPort: uint16(1024 + i), DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, []byte("GET /"))
}

func TestDeliverViaSMux(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	counts := make(map[packet.Addr]int)
	for i := uint32(0); i < 1000; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		if err != nil {
			t.Fatal(err)
		}
		if d.VIP != v.Addr {
			t.Fatalf("delivery VIP %s", d.VIP)
		}
		if hops := d.Hops(); len(hops) != 2 || hops[0].Kind != "smux" || hops[1].Kind != "agent" {
			t.Fatalf("hops = %+v", hops)
		}
		counts[d.DIP]++
		// The packet the server receives is addressed to the DIP.
		var ip packet.IPv4
		if err := ip.DecodeFromBytes(d.Packet); err != nil {
			t.Fatal(err)
		}
		if ip.Dst != d.DIP {
			t.Fatal("delivered packet not rewritten to DIP")
		}
	}
	for _, b := range v.Backends {
		frac := float64(counts[b.Addr]) / 1000
		if math.Abs(frac-0.5) > 0.08 {
			t.Fatalf("DIP %s got %.3f", b.Addr, frac)
		}
	}
}

func TestDeliverViaHMux(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	sw := c.Topo.TorID(0, 0)
	if err := placeOn(c, v.Addr, sw); err != nil {
		t.Fatal(err)
	}
	if home, ok := c.HomeOf(v.Addr); !ok || home != sw {
		t.Fatal("HomeOf wrong")
	}
	d, err := c.Deliver(clientPkt(v.Addr, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Hops()[0].Kind != "hmux" {
		t.Fatalf("first hop = %+v, want hmux (LPM /32 preference)", d.Hops()[0])
	}
}

func TestHMuxAndSMuxPickSameDIP(t *testing.T) {
	// The migration invariant at the cluster level: the DIP chosen for a
	// tuple must not change when the VIP moves from SMux to HMux.
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	before := make(map[uint32]packet.Addr)
	for i := uint32(0); i < 300; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = d.DIP
	}
	if err := placeOn(c, v.Addr, c.Topo.AggID(0, 0)); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 300; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		if err != nil {
			t.Fatal(err)
		}
		if d.DIP != before[i] {
			t.Fatalf("flow %d remapped %s→%s across migration", i, before[i], d.DIP)
		}
	}
}

func TestWithdrawFallsBackToSMux(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	sw := c.Topo.TorID(0, 0)
	if err := placeOn(c, v.Addr, sw); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, v.Addr); err != nil {
		t.Fatal(err)
	}
	d, err := c.Deliver(clientPkt(v.Addr, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Hops()[0].Kind != "smux" {
		t.Fatalf("hops after withdraw = %+v", d.Hops())
	}
}

func TestFailSwitchFailsOver(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	sw := c.Topo.TorID(0, 0)
	if err := placeOn(c, v.Addr, sw); err != nil {
		t.Fatal(err)
	}
	c.FailSwitch(sw)
	if c.SwitchUp(sw) {
		t.Fatal("switch still up")
	}
	if _, ok := c.HomeOf(v.Addr); ok {
		t.Fatal("failed switch still recorded as home")
	}
	d, err := c.Deliver(clientPkt(v.Addr, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Hops()[0].Kind != "smux" {
		t.Fatalf("failover hops = %+v", d.Hops())
	}
	// Recovery: switch comes back empty; VIP stays on SMux until the
	// controller reassigns.
	c.RecoverSwitch(sw)
	if !c.SwitchUp(sw) {
		t.Fatal("switch did not recover")
	}
	d, err = c.Deliver(clientPkt(v.Addr, 2))
	if err != nil || d.Hops()[0].Kind != "smux" {
		t.Fatalf("post-recovery delivery: %+v %v", d.Hops(), err)
	}
	// Double fail/recover are no-ops.
	c.RecoverSwitch(sw)
	c.FailSwitch(sw)
	c.FailSwitch(sw)
}

func TestAssignErrors(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1")
	if err := placeOn(c, v.Addr, 0); err != ErrVIPUnknown {
		t.Fatalf("unknown VIP: %v", err)
	}
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := c.AddVIP(v); err != ErrVIPExists {
		t.Fatalf("duplicate: %v", err)
	}
	if err := placeOn(c, v.Addr, topology.SwitchID(999)); err != ErrNoSuchSwitch {
		t.Fatalf("bad switch: %v", err)
	}
	sw := c.Topo.TorID(0, 0)
	if err := placeOn(c, v.Addr, sw); err != nil {
		t.Fatal(err)
	}
	// Idempotent same-switch assign.
	if err := placeOn(c, v.Addr, sw); err != nil {
		t.Fatalf("same-switch reassign: %v", err)
	}
	other := c.Topo.TorID(1, 0)
	c.FailSwitch(other)
	v2 := mkVIP(1, "100.0.1.1")
	if err := c.AddVIP(v2); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, v2.Addr, other); err != ErrSwitchDown {
		t.Fatalf("down switch: %v", err)
	}
}

func TestRemoveVIP(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, v.Addr, c.Topo.TorID(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveVIP(v.Addr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deliver(clientPkt(v.Addr, 1)); err == nil {
		t.Fatal("removed VIP still deliverable")
	}
	if err := c.RemoveVIP(v.Addr); err != ErrVIPUnknown {
		t.Fatalf("double remove: %v", err)
	}
}

func TestDeliverNoRoute(t *testing.T) {
	c := testCluster(t)
	// Address outside the SMux aggregate.
	pkt := clientPkt(packet.MustParseAddr("99.0.0.1"), 1)
	if _, err := c.Deliver(pkt); err != ErrNoRoute {
		t.Fatalf("got %v", err)
	}
}

func TestTIPIndirectionEndToEnd(t *testing.T) {
	c := testCluster(t)
	// VIP whose "backends" are two TIPs hosted on other switches.
	tip1 := packet.MustParseAddr("20.0.0.1")
	tip2 := packet.MustParseAddr("20.0.0.2")
	v := &service.VIP{Addr: packet.AddrFrom4(10, 0, 0, 9), Backends: []service.Backend{
		{Addr: tip1, Weight: 1}, {Addr: tip2, Weight: 1},
	}}
	part1 := []service.Backend{{Addr: packet.MustParseAddr("100.0.0.1"), Weight: 1}}
	part2 := []service.Backend{{Addr: packet.MustParseAddr("100.0.0.2"), Weight: 1}}

	// The VIP must ride an HMux for TIP encapsulation (SMuxes would need the
	// flat list); install everything.
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, v.Addr, c.Topo.CoreID(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallTIP(tip1, c.Topo.AggID(0, 0), part1); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallTIP(tip2, c.Topo.AggID(1, 0), part2); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTIPBackends(v.Addr, part1); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTIPBackends(v.Addr, part2); err != nil {
		t.Fatal(err)
	}

	seen := make(map[packet.Addr]bool)
	for i := uint32(0); i < 400; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		if err != nil {
			t.Fatal(err)
		}
		if hops := d.Hops(); len(hops) != 3 || hops[1].Kind != "tip" {
			t.Fatalf("hops = %+v, want hmux→tip→agent", hops)
		}
		seen[d.DIP] = true
	}
	if !seen[packet.MustParseAddr("100.0.0.1")] || !seen[packet.MustParseAddr("100.0.0.2")] {
		t.Fatalf("TIP partitions not both used: %v", seen)
	}
}

func TestVirtualizedHost(t *testing.T) {
	c := testCluster(t)
	host := packet.MustParseAddr("20.0.1.1")
	vip := packet.AddrFrom4(10, 0, 0, 5)
	vms := []packet.Addr{packet.MustParseAddr("100.1.0.1"), packet.MustParseAddr("100.1.0.2")}
	// The VIP's backend is the HIP (twice, one tunnel entry per VM DIP —
	// Figure 6); the host agent fans out to the VMs.
	v := &service.VIP{Addr: vip, Backends: []service.Backend{{Addr: host, Weight: 2}}}
	if err := c.RegisterHost(host, vip, vms); err != nil {
		t.Fatal(err)
	}
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	seen := make(map[packet.Addr]bool)
	for i := uint32(0); i < 500; i++ {
		d, err := c.Deliver(clientPkt(vip, i))
		if err != nil {
			t.Fatal(err)
		}
		if d.Host != host {
			t.Fatalf("host = %s", d.Host)
		}
		seen[d.DIP] = true
	}
	if len(seen) != 2 || !seen[vms[0]] || !seen[vms[1]] {
		t.Fatalf("flows delivered to %v, want exactly the two VM DIPs (the host's own address is not one)", seen)
	}
}

func TestVIPsListing(t *testing.T) {
	c := testCluster(t)
	dips := []string{"100.0.0.1", "100.0.0.2", "100.0.0.3"}
	for i := 0; i < 3; i++ {
		if err := c.AddVIP(mkVIP(i, dips[i])); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.VIPs()) != 3 {
		t.Fatalf("VIPs = %d", len(c.VIPs()))
	}
	if _, ok := c.VIP(packet.AddrFrom4(10, 0, 0, 1)); !ok {
		t.Fatal("VIP lookup failed")
	}
}

// TestVIPsSorted: the listing is in address order, not map order, so what
// walks it — the controller's health sweep, duetctl's tables — does the same
// thing in the same order every run.
func TestVIPsSorted(t *testing.T) {
	c := testCluster(t)
	for i := 0; i < 64; i++ {
		// Added out of order: 37 is coprime to 64, so i*37 mod 64 visits all.
		j := i * 37 % 64
		must(t, c.AddVIP(&service.VIP{
			Addr:     packet.AddrFrom4(10, byte(j%3), 0, byte(j)),
			Backends: []service.Backend{{Addr: packet.AddrFrom4(100, 0, 0, byte(j)), Weight: 1}},
		}))
	}
	got := c.VIPs()
	if len(got) != 64 || !slices.IsSorted(got) {
		t.Fatalf("VIPs() = %v, want 64 addresses in ascending order", got)
	}
}

func BenchmarkDeliver(b *testing.B) {
	c := testCluster(b)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	if err := c.AddVIP(v); err != nil {
		b.Fatal(err)
	}
	if err := placeOn(c, v.Addr, c.Topo.TorID(0, 0)); err != nil {
		b.Fatal(err)
	}
	pkt := clientPkt(v.Addr, 7)
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		if _, err := c.Deliver(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRebootWipesTables pins the §5.1 reboot semantics the chaos test
// uncovered: a recovered switch must come back with BLANK tables. A VIP
// withdrawn while its replica switch was down must be re-assignable there
// after recovery.
func TestRebootWipesTables(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	sw := c.Topo.AggID(0, 0)
	other := c.Topo.AggID(1, 0)
	if err := placeOn(c, v.Addr, sw, other); err != nil {
		t.Fatal(err)
	}
	// The replica switch dies; the operator withdraws the replicas while it
	// is down (only the live one can be cleaned).
	c.FailSwitch(sw)
	if err := placeOn(c, v.Addr); err != nil {
		t.Fatal(err)
	}
	c.RecoverSwitch(sw)
	// Rebooted switch: blank tables, so re-assignment must succeed.
	if c.HMuxes[sw].HasVIP(v.Addr) {
		t.Fatal("rebooted switch kept stale tables")
	}
	if st := c.HMuxes[sw].Stats(); st.HostUsed != 0 || st.ECMPUsed != 0 || st.TunnelUsed != 0 {
		t.Fatalf("rebooted switch tables not blank: %+v", st)
	}
	if err := placeOn(c, v.Addr, sw); err != nil {
		t.Fatalf("re-assignment after reboot failed: %v", err)
	}
	if _, err := c.Deliver(clientPkt(v.Addr, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestDeliverSwitchDownBlackhole models the unconverged-withdrawal window:
// the fabric still carries a /32 toward a switch that has died (the paper's
// §7.2 sub-40ms convergence gap). Deliver must surface the blackhole as
// ErrSwitchDown, not route the packet through a dead HMux.
func TestDeliverSwitchDownBlackhole(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	sw := c.Topo.AggID(0, 0)
	c.FailSwitch(sw)
	// Simulate the not-yet-withdrawn route: announce the VIP's /32 at the
	// dead switch, visible since t=0, as a converging fabric would still hold.
	c.Routes.Announce(packet.HostPrefix(v.Addr), bgp.NodeID(sw), 0)
	if _, err := c.Deliver(clientPkt(v.Addr, 1)); !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("got %v, want ErrSwitchDown", err)
	}
	// Once the controller recovers the switch, delivery resumes (the stale
	// /32 now points at a live switch with no FIB entry, which falls back to
	// the SMux layer).
	c.RecoverSwitch(sw)
	if _, err := c.Deliver(clientPkt(v.Addr, 2)); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// TestDeliverTIPSwitchDown covers the indirection-specific blackhole: the
// VIP's home HMux is alive, but the switch hosting its TIP partition is not.
// FailSwitch deliberately keeps tipHome entries (the partition is still
// programmed, just unreachable), so Deliver must return ErrSwitchDown for
// the second hop until the controller re-installs the partition.
func TestDeliverTIPSwitchDown(t *testing.T) {
	c := testCluster(t)
	tip := packet.MustParseAddr("20.0.0.1")
	part := []service.Backend{{Addr: packet.MustParseAddr("100.0.0.1"), Weight: 1}}
	v := &service.VIP{Addr: packet.AddrFrom4(10, 0, 0, 9),
		Backends: []service.Backend{{Addr: tip, Weight: 1}}}
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, v.Addr, c.Topo.CoreID(0)); err != nil {
		t.Fatal(err)
	}
	tipSw := c.Topo.AggID(0, 0)
	if err := c.InstallTIP(tip, tipSw, part); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTIPBackends(v.Addr, part); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deliver(clientPkt(v.Addr, 1)); err != nil {
		t.Fatalf("healthy TIP path: %v", err)
	}
	c.FailSwitch(tipSw)
	if _, err := c.Deliver(clientPkt(v.Addr, 2)); !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("got %v, want ErrSwitchDown for dead TIP switch", err)
	}
	// Recovery wipes the rebooted switch's tables; re-installing the
	// partition restores end-to-end delivery.
	c.RecoverSwitch(tipSw)
	if err := c.InstallTIP(tip, tipSw, part); err != nil {
		t.Fatal(err)
	}
	d, err := c.Deliver(clientPkt(v.Addr, 3))
	if err != nil {
		t.Fatalf("after reinstall: %v", err)
	}
	if d.DIP != part[0].Addr {
		t.Fatalf("DIP = %s", d.DIP)
	}
}

// TestDeliverNoHostAgent models a decommissioned server whose tunnel entry
// is still installed: the encap destination resolves, but no host agent
// answers there. The error must wrap ErrNoHostAgent and name the address.
func TestDeliverNoHostAgent(t *testing.T) {
	c := testCluster(t)
	dip := packet.MustParseAddr("100.0.0.1")
	v := mkVIP(0, "100.0.0.1")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	// Decommission the server out from under the installed VIP (the test is
	// in-package: publish a generation without the agent, exactly what a
	// host-removal control call would do).
	c.mu.Lock()
	s := *c.snap.Load()
	s.agents = s.agents.Without(dip)
	c.publish(s)
	c.mu.Unlock()
	_, err := c.Deliver(clientPkt(v.Addr, 1))
	if !errors.Is(err, ErrNoHostAgent) {
		t.Fatalf("got %v, want ErrNoHostAgent", err)
	}
	if !strings.Contains(err.Error(), dip.String()) {
		t.Fatalf("error %q does not name the encap destination", err)
	}
}

// TestDeliveryHopOrdering pins the shape of Delivery.Hops for each datapath:
// smux→agent for backstop traffic, hmux→agent for assigned VIPs, and
// hmux→tip→agent for indirected ones — the order a real packet traverses
// the fabric, with no hop skipped or duplicated.
func TestDeliveryHopOrdering(t *testing.T) {
	c := testCluster(t)

	smuxVIP := mkVIP(0, "100.0.0.1")
	hmuxVIP := mkVIP(1, "100.0.1.1")
	tip := packet.MustParseAddr("20.0.0.1")
	part := []service.Backend{{Addr: packet.MustParseAddr("100.0.2.1"), Weight: 1}}
	tipVIP := &service.VIP{Addr: packet.AddrFrom4(10, 0, 0, 3),
		Backends: []service.Backend{{Addr: tip, Weight: 1}}}

	for _, v := range []*service.VIP{smuxVIP, hmuxVIP, tipVIP} {
		if err := c.AddVIP(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := placeOn(c, hmuxVIP.Addr, c.Topo.AggID(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, tipVIP.Addr, c.Topo.CoreID(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallTIP(tip, c.Topo.AggID(1, 0), part); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTIPBackends(tipVIP.Addr, part); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		vip  packet.Addr
		want []string
	}{
		{smuxVIP.Addr, []string{"smux", "agent"}},
		{hmuxVIP.Addr, []string{"hmux", "agent"}},
		{tipVIP.Addr, []string{"hmux", "tip", "agent"}},
	}
	for _, tc := range cases {
		for i := uint32(0); i < 50; i++ {
			d, err := c.Deliver(clientPkt(tc.vip, i))
			if err != nil {
				t.Fatalf("%s: %v", tc.vip, err)
			}
			hops := d.Hops()
			if len(hops) != len(tc.want) {
				t.Fatalf("%s: %d hops %+v, want %v", tc.vip, len(hops), hops, tc.want)
			}
			for j, kind := range tc.want {
				if hops[j].Kind != kind {
					t.Fatalf("%s: hop %d = %q, want %q (hops %+v)", tc.vip, j, hops[j].Kind, kind, hops)
				}
				if hops[j].Node == "" {
					t.Fatalf("%s: hop %d has no node name", tc.vip, j)
				}
			}
		}
	}
}
