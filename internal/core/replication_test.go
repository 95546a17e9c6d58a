package core

import (
	"slices"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/topology"
)

func TestReplicatedVIPSplitsAcrossSwitches(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	reps := []topology.SwitchID{c.Topo.AggID(0, 0), c.Topo.AggID(1, 0)}
	if err := placeOn(c, v.Addr, reps...); err != nil {
		t.Fatal(err)
	}
	if got := c.Replicas(v.Addr); len(got) != 2 {
		t.Fatalf("replicas = %v", got)
	}
	// Both replica switches should receive traffic (ECMP over /32 routes).
	seen := make(map[string]int)
	for i := uint32(0); i < 2000; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		if err != nil {
			t.Fatal(err)
		}
		first := d.Hops()[0]
		if first.Kind != "hmux" {
			t.Fatalf("replicated VIP served by %v", first)
		}
		seen[first.Node]++
	}
	if len(seen) != 2 {
		t.Fatalf("traffic used %d replicas, want 2: %v", len(seen), seen)
	}
	for name, n := range seen {
		if n < 400 {
			t.Fatalf("replica %s got only %d/2000 flows", name, n)
		}
	}
}

// TestReplicaFailureNoSMuxNoRemap is the §9 trade-off: with replication, a
// switch failure is absorbed by the surviving replica — no SMux involvement
// and, thanks to the shared hash, no connection remaps.
func TestReplicaFailureNoSMuxNoRemap(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2", "100.0.0.3")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	reps := []topology.SwitchID{c.Topo.AggID(0, 0), c.Topo.AggID(1, 0)}
	if err := placeOn(c, v.Addr, reps...); err != nil {
		t.Fatal(err)
	}
	before := make(map[uint32]packet.Addr)
	for i := uint32(0); i < 1000; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = d.DIP
	}
	c.FailSwitch(reps[0])
	surviving := c.Topo.Switch(reps[1]).Name
	for i := uint32(0); i < 1000; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		if err != nil {
			t.Fatal(err)
		}
		if first := d.Hops()[0]; first.Kind != "hmux" || first.Node != surviving {
			t.Fatalf("flow %d not absorbed by surviving replica: %+v", i, first)
		}
		if d.DIP != before[i] {
			t.Fatalf("flow %d remapped %s→%s on replica failure", i, before[i], d.DIP)
		}
	}
	if got := c.Replicas(v.Addr); len(got) != 1 || got[0] != reps[1] {
		t.Fatalf("replica bookkeeping after failure: %v", got)
	}
}

func TestReplicationErrors(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1")
	if err := placeOn(c, v.Addr, 0); err != ErrVIPUnknown {
		t.Fatalf("unknown VIP: %v", err)
	}
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, v.Addr, 999); err != ErrNoSuchSwitch {
		t.Fatalf("bad switch: %v", err)
	}
	dup := c.Topo.AggID(0, 0)
	if err := placeOn(c, v.Addr, dup, dup); err == nil {
		t.Fatal("duplicate replica accepted")
	}
	down := c.Topo.AggID(1, 1)
	c.FailSwitch(down)
	if err := placeOn(c, v.Addr, down); err != ErrSwitchDown {
		t.Fatalf("down switch: %v", err)
	}

	// A placed VIP moves straight between switch sets, one batch each: a
	// home, replicas, another home.
	for _, sws := range [][]topology.SwitchID{
		{c.Topo.AggID(0, 0)},
		{c.Topo.AggID(1, 0), c.Topo.AggID(0, 1)},
		{c.Topo.AggID(0, 1)},
	} {
		if err := placeOn(c, v.Addr, sws...); err != nil {
			t.Fatal(err)
		}
		if got := c.Replicas(v.Addr); !slices.Equal(got, sws) {
			t.Fatalf("replicas %v, want %v", got, sws)
		}
		for i, hm := range c.HMuxes {
			if want := slices.Contains(sws, topology.SwitchID(i)); hm.HasVIP(v.Addr) != want {
				t.Fatalf("switch %d holds the VIP: %v, want %v", i, !want, want)
			}
		}
	}
}

func TestWithdrawReplicasFallsBackToSMux(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	reps := []topology.SwitchID{c.Topo.AggID(0, 0), c.Topo.CoreID(0)}
	if err := placeOn(c, v.Addr, reps...); err != nil {
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
		t.Fatalf("after withdraw: %+v", d.Hops())
	}
	// Switch tables released.
	for _, sw := range reps {
		if c.HMuxes[sw].HasVIP(v.Addr) {
			t.Fatal("replica table entry leaked")
		}
	}
}

func TestRemoveVIPCleansReplicas(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, v.Addr, c.Topo.AggID(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveVIP(v.Addr); err != nil {
		t.Fatal(err)
	}
	if got := c.Replicas(v.Addr); got != nil && len(got) != 0 {
		t.Fatalf("replicas leaked: %v", got)
	}
	if c.HMuxes[c.Topo.AggID(0, 0)].HasVIP(v.Addr) {
		t.Fatal("switch table leaked")
	}
}

func TestReplicationAtomicRollback(t *testing.T) {
	// Second replica's tables are full → the whole operation rolls back.
	cfg := Config{
		Topology:  topology.TestbedConfig(),
		NumSMuxes: 2,
		Aggregate: packet.MustParsePrefix("10.0.0.0/8"),
	}
	cfg.HMuxTables.TunnelTableSize = 2
	cfg.HMuxTables.ECMPTableSize = 4
	cfg.HMuxTables.HostTableSize = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	filler := mkVIP(5, "100.0.9.1", "100.0.9.2")
	if err := c.AddVIP(filler); err != nil {
		t.Fatal(err)
	}
	full := c.Topo.AggID(1, 0)
	if err := placeOn(c, filler.Addr, full); err != nil {
		t.Fatal(err)
	}

	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	empty := c.Topo.AggID(0, 0)
	err = placeOn(c, v.Addr, empty, full)
	if err == nil {
		t.Fatal("expected table-full error")
	}
	if c.HMuxes[empty].HasVIP(v.Addr) {
		t.Fatal("rollback left state on the first replica")
	}
	if c.Replicas(v.Addr) != nil {
		t.Fatal("rollback left replica bookkeeping")
	}
}

// TestBackendChangeOnReplicatedVIP: a replicated VIP's backend set changes on
// every switch that holds it. The cluster used to record a one-switch home
// and a replica set separately and AddBackend/RemoveBackend read only the
// first, so a removed DIP stayed in the replicas' tables (a third of the
// deliveries failed at the host agent that had just unregistered it) and an
// added DIP reached the SMuxes only (no flow of the HMux-served VIP saw it).
func TestBackendChangeOnReplicatedVIP(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2", "100.0.0.3")
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	reps := []topology.SwitchID{c.Topo.AggID(0, 0), c.Topo.AggID(1, 0)}
	if err := placeOn(c, v.Addr, reps...); err != nil {
		t.Fatal(err)
	}
	const flows = 3000
	before := make([]packet.Addr, flows)
	for i := range before {
		d, err := c.Deliver(clientPkt(v.Addr, uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = d.DIP
	}

	gone := packet.MustParseAddr("100.0.0.2")
	if err := removeBackend(c, v.Addr, gone); err != nil {
		t.Fatal(err)
	}
	for _, sw := range reps {
		if st := c.HMuxes[sw].Stats(); st.ECMPUsed != 2 || st.TunnelUsed != 2 {
			t.Fatalf("switch %d still holds the removed DIP: %+v", sw, st)
		}
	}
	failed := 0
	for i := range before {
		d, err := c.Deliver(clientPkt(v.Addr, uint32(i)))
		switch {
		case err != nil:
			failed++
		case d.Hops()[0].Kind != "hmux":
			t.Fatalf("flow %d left the replicas: %+v", i, d.Hops())
		case d.DIP == gone:
			t.Fatalf("flow %d delivered to the removed DIP", i)
		case before[i] != gone && d.DIP != before[i]:
			t.Fatalf("flow %d remapped %s→%s although its DIP survived", i, before[i], d.DIP)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d deliveries failed after RemoveBackend on a replicated VIP", failed, flows)
	}

	// Growing the set rehashes, which only the SMuxes' connection state can
	// mask: refused like on a single-homed VIP, until the replicas go.
	added := service.Backend{Addr: packet.MustParseAddr("100.0.0.4"), Weight: 1}
	if err := addBackend(c, v.Addr, added); err == nil {
		t.Fatal("AddBackend on a replicated VIP accepted; want \"withdraw first\"")
	}
	if cur, _ := c.VIP(v.Addr); len(cur.Backends) != 2 {
		t.Fatalf("refused AddBackend changed the record: %+v", cur.Backends)
	}
	if err := placeOn(c, v.Addr); err != nil {
		t.Fatal(err)
	}
	if err := addBackend(c, v.Addr, added); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, v.Addr, reps...); err != nil {
		t.Fatal(err)
	}
	reached := 0
	for i := 0; i < flows; i++ {
		// Fresh sources: the first 3,000 are pinned in the SMux tables.
		d, err := c.Deliver(clientPkt(v.Addr, uint32(flows+i)))
		if err != nil {
			t.Fatal(err)
		}
		if d.DIP == added.Addr {
			reached++
		}
	}
	if reached == 0 {
		t.Fatalf("the added DIP received 0 of %d flows", flows)
	}
}
