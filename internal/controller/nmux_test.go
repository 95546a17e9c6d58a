package controller

import (
	"testing"

	"duet/internal/assign"
	"duet/internal/core"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/topology"
	"duet/internal/workload"
)

// nmuxWorld builds a cluster with the NIC tier enabled and an engine starved
// of switch capacity so VIPs spill onto the NICs.
func nmuxWorld(t testing.TB, numVIPs int, seed int64) (*core.Cluster, *workload.Workload, *Controller) {
	t.Helper()
	return nmuxWorldMode(t, numVIPs, seed, steer.ModeStateful)
}

// nmuxWorldMode is nmuxWorld with the SMuxes' default mode set.
func nmuxWorldMode(t testing.TB, numVIPs int, seed int64, mode steer.Mode) (*core.Cluster, *workload.Workload, *Controller) {
	t.Helper()
	c, err := core.New(core.Config{
		Topology: topology.Config{
			Containers:       2,
			ToRsPerContainer: 4,
			AggsPerContainer: 2,
			Cores:            4,
			ServersPerToR:    10,
		},
		NumSMuxes:     3,
		Aggregate:     packet.MustParsePrefix("10.0.0.0/8"),
		NMuxTableSize: 2048,
		SMuxMode:      mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		NumVIPs: numVIPs, TotalRate: 5e10, Epochs: 4, Seed: seed,
		TrafficSkew: 1.6, MaxDIPs: 20, InternetFrac: 0.3, ChurnStdDev: 0.3,
	}, c.Topo)
	if err != nil {
		t.Fatal(err)
	}
	opts := assign.DefaultOptions()
	opts.MaxHMuxVIPs = 10
	opts.NMuxTableSize = 2048
	ct := New(c, opts)
	if err := ct.SyncVIPs(w, 8, nil); err != nil {
		t.Fatal(err)
	}
	return c, w, ct
}

func TestRunEpochPlacesThreeTiers(t *testing.T) {
	c, w, ct := nmuxWorld(t, 80, 21)
	rep, err := ct.RunEpoch(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumAssigned == 0 {
		t.Fatal("no VIPs on the switch tier")
	}
	if rep.NumNMux == 0 {
		t.Fatal("no VIPs on the NIC tier")
	}
	// Cluster state agrees with the engine: every NIC-tier VIP configured
	// on the cluster is actually programmed, and never doubly homed.
	onNMux := 0
	for _, addr := range c.VIPs() {
		hosted := c.NMuxHosted(addr)
		_, onSwitch := c.HomeOf(addr)
		if hosted && onSwitch {
			t.Fatalf("VIP %s on both HMux and NIC tier", addr)
		}
		if hosted {
			onNMux++
		}
	}
	if onNMux == 0 {
		t.Fatal("engine placed NIC VIPs but none programmed on the cluster")
	}
	// NIC-hosted VIPs actually deliver through the nmux hop.
	sawNMuxHop := false
	for _, addr := range c.VIPs() {
		if !c.NMuxHosted(addr) {
			continue
		}
		d, err := c.Deliver(clientPkt(addr, 7))
		if err != nil {
			t.Fatal(err)
		}
		if d.Hops()[0].Kind == "nmux" {
			sawNMuxHop = true
		}
		break
	}
	if !sawNMuxHop {
		t.Fatal("NIC-hosted VIP did not deliver via the nmux hop")
	}
}

func TestRunEpochMigratesAcrossTiers(t *testing.T) {
	c, w, ct := nmuxWorld(t, 80, 22)
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	// Next epoch with the NIC tier disabled: every NIC VIP must migrate
	// back to the SMuxes (or a switch) through the updater.
	ct.Opts.NMuxTableSize = 0
	rep, err := ct.RunEpoch(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range c.VIPs() {
		if c.NMuxHosted(addr) {
			t.Fatalf("VIP %s still NIC-hosted after the tier was disabled", addr)
		}
	}
	if rep.Moved == 0 {
		t.Fatal("disabling the NIC tier moved nothing")
	}
	// And re-enabling brings it back.
	ct.Opts.NMuxTableSize = 2048
	rep, err = ct.RunEpoch(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumNMux == 0 {
		t.Fatal("re-enabled NIC tier placed nothing")
	}
}

func TestAddDIPReprogramsNMuxInPlace(t *testing.T) {
	c, w, ct := nmuxWorld(t, 80, 23)
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	var vip packet.Addr
	for _, addr := range c.VIPs() {
		if c.NMuxHosted(addr) {
			vip = addr
			break
		}
	}
	if vip.IsZero() {
		t.Fatal("no NIC-hosted VIP to grow")
	}
	// Pin a flow through the NIC tier, grow the VIP, verify the pinned flow
	// still lands on its original DIP (in-place update, no bounce).
	pkt := clientPkt(vip, 3)
	before, err := c.Deliver(pkt)
	if err != nil {
		t.Fatal(err)
	}
	nb := service.Backend{Addr: packet.AddrFrom4(100, 200, 200, 1), Weight: 1}
	if err := ct.AddDIP(vip, nb); err != nil {
		t.Fatal(err)
	}
	if !c.NMuxHosted(vip) {
		t.Fatal("AddDIP bounced the VIP off the NIC tier despite table room")
	}
	after, err := c.Deliver(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if after.DIP != before.DIP {
		t.Fatalf("pinned flow remapped by AddDIP: %s → %s", before.DIP, after.DIP)
	}
	if after.Hops()[0].Kind != "nmux" {
		t.Fatalf("hops = %+v, want nmux first", after.Hops())
	}

	// RemoveDIP of the original target terminates the pinned flow but keeps
	// the VIP on the tier, and traffic no longer reaches the removed DIP.
	if err := ct.RemoveDIP(vip, before.DIP); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		d, err := c.Deliver(clientPkt(vip, i))
		if err != nil {
			t.Fatal(err)
		}
		if d.DIP == before.DIP {
			t.Fatalf("packet still delivered to removed DIP %s", before.DIP)
		}
	}
}
