package core

import (
	"errors"
	"testing"

	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/topology"
)

func testClusterNMux(t testing.TB, tableSize int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Topology:      topology.TestbedConfig(),
		NumSMuxes:     3,
		Aggregate:     packet.MustParsePrefix("10.0.0.0/8"),
		NMuxTableSize: tableSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDeliverViaNMux(t *testing.T) {
	c := testClusterNMux(t, 256)
	if len(c.NMuxes) != len(c.SMuxes) {
		t.Fatalf("NMuxes = %d, want one per SMux (%d)", len(c.NMuxes), len(c.SMuxes))
	}
	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignToNMux(v.Addr); err != nil {
		t.Fatal(err)
	}
	if !c.NMuxHosted(v.Addr) {
		t.Fatal("NMuxHosted = false after AssignToNMux")
	}
	reg, _ := c.Telemetry()
	for i := uint32(0); i < 500; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		if err != nil {
			t.Fatal(err)
		}
		if hops := d.Hops(); len(hops) != 2 || hops[0].Kind != "nmux" || hops[1].Kind != "agent" {
			t.Fatalf("hops = %+v, want nmux → agent", hops)
		}
	}
	if got := reg.Counter("core.deliver.tier.nmux").Value(); got != 500 {
		t.Fatalf("tier.nmux = %d, want 500", got)
	}
	if got := reg.Counter("core.deliver.tier.smux").Value(); got != 0 {
		t.Fatalf("tier.smux = %d, want 0", got)
	}
}

func TestDeliverNMuxMissFallsToSMux(t *testing.T) {
	c := testClusterNMux(t, 256)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	// VIP configured but NOT assigned to the NIC tier: every packet is an
	// NMux miss served by the SMux.
	reg, _ := c.Telemetry()
	for i := uint32(0); i < 200; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		if err != nil {
			t.Fatal(err)
		}
		if d.Hops()[0].Kind != "smux" {
			t.Fatalf("hops = %+v, want smux first", d.Hops())
		}
	}
	if got := reg.Counter("core.deliver.tier.nmux_miss").Value(); got != 200 {
		t.Fatalf("tier.nmux_miss = %d, want 200", got)
	}
	if got := reg.Counter("core.deliver.tier.smux").Value(); got != 200 {
		t.Fatalf("tier.smux = %d, want 200", got)
	}
}

func TestNMuxEncapIdenticalToSMux(t *testing.T) {
	// The same flow must produce byte-identical deliveries whether the NIC
	// tier serves it or the SMux does — assign, withdraw, re-deliver.
	c := testClusterNMux(t, 256)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2", "100.0.0.3")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignToNMux(v.Addr); err != nil {
		t.Fatal(err)
	}
	type obs struct {
		dip  packet.Addr
		host packet.Addr
		pkt  string
	}
	before := make([]obs, 64)
	for i := range before {
		d, err := c.Deliver(clientPkt(v.Addr, uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = obs{d.DIP, d.Host, string(d.Packet)}
	}
	if err := c.WithdrawFromNMux(v.Addr); err != nil {
		t.Fatal(err)
	}
	if c.NMuxHosted(v.Addr) {
		t.Fatal("still NMux-hosted after withdraw")
	}
	for i := range before {
		d, err := c.Deliver(clientPkt(v.Addr, uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if d.Hops()[0].Kind != "smux" {
			t.Fatalf("post-withdraw hops = %+v", d.Hops())
		}
		if d.DIP != before[i].dip || d.Host != before[i].host || string(d.Packet) != before[i].pkt {
			t.Fatalf("flow %d changed across tier withdrawal: %s → %s", i, before[i].dip, d.DIP)
		}
	}
}

func TestAssignToNMuxGuards(t *testing.T) {
	c := testClusterNMux(t, 64)
	v := mkVIP(0, "100.0.0.1")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}

	// Unknown VIP.
	if err := c.AssignToNMux(packet.AddrFrom4(10, 9, 9, 9)); !errors.Is(err, ErrVIPUnknown) {
		t.Fatalf("unknown VIP: err = %v", err)
	}
	// HMux-hosted VIPs must be withdrawn first.
	var agg topology.SwitchID = -1
	for _, sw := range c.Topo.Switches {
		if sw.Kind == topology.Agg {
			agg = sw.ID
			break
		}
	}
	if err := c.AssignToHMux(v.Addr, agg); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignToNMux(v.Addr); err == nil {
		t.Fatal("AssignToNMux should reject an HMux-hosted VIP")
	}
	if err := c.WithdrawFromHMux(v.Addr); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignToNMux(v.Addr); err != nil {
		t.Fatal(err)
	}
	// And the converse: NIC-hosted VIPs reject HMux assignment.
	if err := c.AssignToHMux(v.Addr, agg); err == nil {
		t.Fatal("AssignToHMux should reject a NIC-hosted VIP")
	}
	// Idempotent re-assign.
	if err := c.AssignToNMux(v.Addr); err != nil {
		t.Fatalf("re-assign: %v", err)
	}

	// Table-full rollback: a VIP too fat for the remaining space fails and
	// programs nothing.
	fat := mkVIP(1)
	for j := 0; j < 70; j++ {
		fat.Backends = append(fat.Backends, service.Backend{
			Addr: packet.AddrFrom4(100, 1, byte(j), 1), Weight: 1,
		})
	}
	if err := c.AddVIP(fat); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignToNMux(fat.Addr); !errors.Is(err, nmux.ErrTableFull) {
		t.Fatalf("fat VIP: err = %v, want ErrTableFull", err)
	}
	for _, nm := range c.NMuxes {
		if nm.HasVIP(fat.Addr) {
			t.Fatal("partial programming left behind after rollback")
		}
	}
}

func TestRemoveVIPPurgesNMux(t *testing.T) {
	c := testClusterNMux(t, 256)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignToNMux(v.Addr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deliver(clientPkt(v.Addr, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveVIP(v.Addr); err != nil {
		t.Fatal(err)
	}
	for _, nm := range c.NMuxes {
		if nm.HasVIP(v.Addr) || nm.Stats().Flows != 0 {
			t.Fatal("RemoveVIP left NIC state behind")
		}
	}
	if c.NMuxHosted(v.Addr) {
		t.Fatal("RemoveVIP left the VIP marked NIC-hosted")
	}
}

func TestCollectPublishesNMuxGauges(t *testing.T) {
	c := testClusterNMux(t, 128)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignToNMux(v.Addr); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 50; i++ {
		if _, err := c.Deliver(clientPkt(v.Addr, i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Collect()
	reg, _ := c.Telemetry()
	if got := reg.Gauge("nmux.tables.cap").Value(); got != 128 {
		t.Fatalf("nmux.tables.cap = %d, want 128", got)
	}
	used := reg.Gauge("nmux.tables.used_max").Value()
	if used <= 3 { // wildcard cost alone is 3; flow entries must show up
		t.Fatalf("nmux.tables.used_max = %d, want > 3", used)
	}
	if flows := reg.Gauge("nmux.flows_total").Value(); flows == 0 {
		t.Fatal("nmux.flows_total = 0, want > 0")
	}
}
