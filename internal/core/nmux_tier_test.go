package core

import (
	"errors"
	"slices"
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
	if err := placeOn(c, v.Addr); err != nil {
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
	if err := c.AssignToNMux(v.Addr); err != nil {
		t.Fatal(err)
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

// TestPlaceMovesBetweenHardwareTiers: a VIP moves between a switch and the
// NIC tier in one batch — AssignToNMux off its switch, a switch target off
// the NICs — that advances the switch and every NIC by one generation and
// no SMux, transiting the stepping stone inside the batch; its flows keep
// their DIPs (the shared hash) while their first hop changes tier. A VIP on
// the SMux tier placed there again publishes nothing.
func TestPlaceMovesBetweenHardwareTiers(t *testing.T) {
	c := testClusterNMux(t, 64)
	v, soft := mkVIP(0, "100.0.0.1", "100.0.0.2", "100.0.0.3"), mkVIP(1, "100.0.1.1")
	must(t, c.AddVIP(v))
	must(t, c.AddVIP(soft))
	agg := c.Topo.AggID(0, 0)
	must(t, placeOn(c, v.Addr, agg))

	dips := make([]packet.Addr, 64)
	deliver := func(first string) {
		t.Helper()
		for i := range dips {
			d, err := c.Deliver(clientPkt(v.Addr, uint32(i)))
			must(t, err)
			if d.Hops()[0].Kind != first {
				t.Fatalf("flow %d: hops %+v, want %s first", i, d.Hops(), first)
			}
			if dips[i] == 0 {
				dips[i] = d.DIP
			} else if d.DIP != dips[i] {
				t.Fatalf("flow %d remapped %s → %s across the tier move", i, dips[i], d.DIP)
			}
		}
	}
	deliver("hmux")
	for _, step := range []struct {
		name  string
		move  func() error
		first string
	}{
		{"AssignToNMux of a switch-hosted VIP", func() error { return c.AssignToNMux(v.Addr) }, "nmux"},
		{"a switch target for a NIC-hosted VIP", func() error { return placeOn(c, v.Addr, agg) }, "hmux"},
	} {
		before := generations(c)
		if err := step.move(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for i, g := range generations(c) {
			want := before[i]
			if i == int(agg) || (i >= len(c.HMuxes) && i < len(c.HMuxes)+len(c.NMuxes)) {
				want++
			}
			if g != want {
				t.Errorf("%s: table %d generation %d → %d, want %d", step.name, i, before[i], g, want)
			}
		}
		deliver(step.first)
	}
	if home, ok := c.HomeOf(v.Addr); !ok || home != agg || c.NMuxHosted(v.Addr) {
		t.Fatalf("HomeOf = %v %v, NMuxHosted = %v; want %v only", home, ok, c.NMuxHosted(v.Addr), agg)
	}

	before := generations(c)
	if err := c.Place(Target{Addr: soft.Addr}); err != nil {
		t.Fatalf("placing an SMux-tier VIP on the SMux tier: %v", err)
	}
	if after := generations(c); !slices.Equal(after, before) {
		t.Fatalf("a no-op target published generations %v → %v", before, after)
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
