// Failover: reproduces the paper's §5.1/§7.2 story end to end. A VIP lives
// on a hardware mux; the switch dies; traffic falls through to the SMux
// backstop with every established connection still mapped to its original
// DIP (shared hash); the controller then re-places the VIP on a healthy
// switch.
package main

import (
	"fmt"
	"log"

	"duet"
)

func main() {
	cluster, err := duet.NewCluster(duet.DefaultClusterConfig())
	if err != nil {
		log.Fatal(err)
	}

	vip := duet.MustParseAddr("10.0.0.1")
	if err := cluster.AddVIP(&duet.VIP{
		Addr: vip,
		Backends: []duet.Backend{
			{Addr: duet.MustParseAddr("100.0.0.1"), Weight: 1},
			{Addr: duet.MustParseAddr("100.0.0.2"), Weight: 1},
			{Addr: duet.MustParseAddr("100.0.0.3"), Weight: 1},
			{Addr: duet.MustParseAddr("100.0.0.4"), Weight: 1},
		},
	}); err != nil {
		log.Fatal(err)
	}

	sw := cluster.Topo.AggID(0, 0)
	if err := cluster.AssignToHMux(vip, sw); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VIP %s assigned to HMux %s\n", vip, cluster.Topo.Switch(sw).Name)

	// Establish 2000 connections and remember where each flow landed.
	before := make(map[int]duet.Addr)
	for i := 0; i < 2000; i++ {
		d, err := cluster.Deliver(flowPacket(vip, i))
		if err != nil {
			log.Fatal(err)
		}
		before[i] = d.DIP
	}
	fmt.Printf("established %d connections through the HMux\n", len(before))

	// The switch dies. The fabric withdraws its routes; LPM falls back to
	// the SMux aggregate — no operator action needed.
	cluster.FailSwitch(sw)
	fmt.Printf("\n!! switch %s failed\n", cluster.Topo.Switch(sw).Name)

	remapped := 0
	viaSMux := 0
	for i := 0; i < 2000; i++ {
		d, err := cluster.Deliver(flowPacket(vip, i))
		if err != nil {
			log.Fatalf("connection %d dropped: %v", i, err)
		}
		if d.DIP != before[i] {
			remapped++
		}
		if d.Hops()[0].Kind == "smux" {
			viaSMux++
		}
	}
	fmt.Printf("after failover: %d/2000 connections via SMux backstop, %d remapped\n",
		viaSMux, remapped)
	if remapped != 0 {
		log.Fatal("BUG: shared hash should preserve every connection")
	}

	// Recovery: the switch returns empty; the controller re-assigns.
	cluster.RecoverSwitch(sw)
	newHome := cluster.Topo.AggID(1, 1)
	if err := cluster.AssignToHMux(vip, newHome); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nswitch recovered; controller re-placed VIP on %s\n",
		cluster.Topo.Switch(newHome).Name)

	remapped = 0
	for i := 0; i < 2000; i++ {
		d, err := cluster.Deliver(flowPacket(vip, i))
		if err != nil {
			log.Fatal(err)
		}
		if d.DIP != before[i] {
			remapped++
		}
	}
	fmt.Printf("after re-placement: %d remapped connections (want 0)\n", remapped)
}

func flowPacket(vip duet.Addr, i int) []byte {
	tuple := duet.FiveTuple{
		Src:     duet.MustParseAddr("30.0.0.1") + duet.Addr(i),
		Dst:     vip,
		SrcPort: uint16(2000 + i),
		DstPort: 443,
		Proto:   6,
	}
	return duet.BuildTCP(tuple, duet.TCPAck, []byte("data"))
}
