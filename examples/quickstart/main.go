// Quickstart: build a small Duet cluster, configure a VIP with three DIPs,
// push real packets through the datapath, and watch the VIP move from the
// SMux backstop onto a hardware mux — the hybrid design of the paper in
// ~60 lines of API use — and a virtualized host fan flows out to its VMs.
package main

import (
	"fmt"
	"log"

	"duet"
)

func main() {
	// A scaled-down datacenter: FatTree fabric, HMux on every switch,
	// 8 SMuxes announcing the 10.0.0.0/8 aggregate as the backstop.
	cluster, err := duet.NewCluster(duet.DefaultClusterConfig())
	if err != nil {
		log.Fatal(err)
	}

	// One service: VIP 10.0.0.1 backed by three DIPs.
	vip := duet.MustParseAddr("10.0.0.1")
	err = cluster.AddVIP(&duet.VIP{
		Addr: vip,
		Backends: []duet.Backend{
			{Addr: duet.MustParseAddr("100.0.0.1"), Weight: 1},
			{Addr: duet.MustParseAddr("100.0.0.2"), Weight: 1},
			{Addr: duet.MustParseAddr("100.0.0.3"), Weight: 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// New VIPs land on the SMuxes first (paper §5.2). Send 9000 flows and
	// show the per-DIP split.
	fmt.Println("== phase 1: VIP served by the SMux backstop ==")
	counts := sendFlows(cluster, vip, 9000, 0)
	for dip, n := range counts {
		fmt.Printf("  DIP %-12s %5d flows (%.1f%%)\n", dip, n, 100*float64(n)/9000)
	}

	// Move the VIP into the switch dataplane: one host-table entry, three
	// ECMP entries, three tunneling entries on ToR 0-0.
	sw := cluster.Topo.TorID(0, 0)
	if err := cluster.Place(duet.Target{Addr: vip, Switches: []duet.SwitchID{sw}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== phase 2: VIP assigned to HMux %s ==\n", cluster.Topo.Switch(sw).Name)
	st := cluster.HMuxes[sw].Stats()
	fmt.Printf("  switch tables: host %d/%d  ecmp %d/%d  tunnel %d/%d\n",
		st.HostUsed, st.HostCap, st.ECMPUsed, st.ECMPCap, st.TunnelUsed, st.TunnelCap)

	counts = sendFlows(cluster, vip, 9000, 0)
	for dip, n := range counts {
		fmt.Printf("  DIP %-12s %5d flows (%.1f%%)\n", dip, n, 100*float64(n)/9000)
	}

	// The critical invariant: the same flow maps to the same DIP on both
	// mux types, so the migration above broke zero connections.
	tuple := duet.FiveTuple{
		Src: duet.MustParseAddr("30.0.0.1"), Dst: vip,
		SrcPort: 5555, DstPort: 80, Proto: 6,
	}
	d, err := cluster.Deliver(duet.BuildTCP(tuple, duet.TCPSyn, []byte("GET /")))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nflow %v\n  hops:", tuple)
	for _, h := range d.Hops() {
		fmt.Printf(" %s(%s)", h.Kind, h.Node)
	}
	fmt.Printf("\n  delivered to DIP %s on host %s\n", d.DIP, d.Host)

	// A virtualized host (Figure 6): the VIP's one backend is the host's own
	// address, and the host agent fans the flows out to the VMs behind it.
	hip, vvip := duet.MustParseAddr("20.0.1.1"), duet.MustParseAddr("10.0.0.2")
	vms := []duet.Addr{duet.MustParseAddr("100.1.0.1"), duet.MustParseAddr("100.1.0.2")}
	if err := cluster.RegisterHost(hip, vvip, vms); err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddVIP(&duet.VIP{Addr: vvip, Backends: []duet.Backend{{Addr: hip, Weight: 2}}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== phase 3: VIP %s on one host (%s) running two VMs ==\n", vvip, hip)
	counts = sendFlows(cluster, vvip, 9000, 0)
	for dip, n := range counts {
		fmt.Printf("  VM DIP %-9s %5d flows (%.1f%%)\n", dip, n, 100*float64(n)/9000)
	}
	if len(counts) != len(vms) {
		log.Fatalf("the host agent spread the flows over %d VM DIPs, want %d", len(counts), len(vms))
	}
}

// sendFlows pushes n distinct TCP flows at the VIP and counts DIP choices.
func sendFlows(cluster *duet.Cluster, vip duet.Addr, n int, saltHigh uint16) map[string]int {
	counts := make(map[string]int)
	for i := 0; i < n; i++ {
		tuple := duet.FiveTuple{
			Src:     duet.MustParseAddr("30.0.0.1") + duet.Addr(i),
			Dst:     vip,
			SrcPort: uint16(1024+i) ^ saltHigh,
			DstPort: 80,
			Proto:   6,
		}
		d, err := cluster.Deliver(duet.BuildTCP(tuple, duet.TCPSyn, nil))
		if err != nil {
			log.Fatal(err)
		}
		counts[d.DIP.String()]++
	}
	return counts
}
