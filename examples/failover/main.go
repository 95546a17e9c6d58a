// Failover: reproduces the paper's §5.1/§7.2 story end to end. A VIP lives
// on a hardware mux; the switch dies and the controller reacts; traffic falls
// through to the SMux backstop with every established connection still
// mapped to its original DIP (shared hash); the VIP is then re-placed on a
// healthy switch. In the last act a DIP fails: its host agent reports it
// unhealthy, the controller's health sweep removes it, and only the
// connections it was serving move.
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

	ctl := duet.NewController(cluster, duet.DefaultAssignOptions())
	reg, rec := cluster.Telemetry()
	ctl.SetTelemetry(reg, rec)

	sw := cluster.Topo.AggID(0, 0)
	if err := cluster.Place(duet.Target{Addr: vip, Switches: []duet.SwitchID{sw}}); err != nil {
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

	// The switch dies. The controller's §5.1 reaction: the fabric withdraws
	// the switch's routes, LPM falls back to the SMux aggregate, and the
	// switch's VIPs count as SMux-hosted until they are placed again.
	ctl.HandleSwitchFailure(sw)
	fmt.Printf("\n!! switch %s failed (controller.switch_failures_handled = %d)\n",
		cluster.Topo.Switch(sw).Name, reg.Counter("controller.switch_failures_handled").Value())

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
	if err := cluster.Place(duet.Target{Addr: vip, Switches: []duet.SwitchID{newHome}}); err != nil {
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
	if remapped != 0 {
		log.Fatal("BUG: re-placement moved established connections")
	}

	// A DIP fails (§5.1 "DIP failure", §6): its host agent reports it
	// unhealthy and the controller's sweep removes it from the VIP in place.
	// Resilient hashing moves the dead DIP's connections and no others.
	dead := duet.MustParseAddr("100.0.0.2")
	agent, ok := cluster.Agent(dead)
	if !ok {
		log.Fatalf("no host agent for %s", dead)
	}
	if err := agent.SetHealth(dead, false); err != nil {
		log.Fatal(err)
	}
	removed, err := ctl.HealthSweep()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n!! DIP %s reported unhealthy; health sweep removed %d DIP(s)\n", dead, len(removed))

	reresolved, moved := 0, 0
	for i := 0; i < 2000; i++ {
		d, err := cluster.Deliver(flowPacket(vip, i))
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case d.DIP == dead:
			log.Fatalf("connection %d still delivered to the dead DIP", i)
		case before[i] == dead:
			reresolved++
		case d.DIP != before[i]:
			moved++
		}
	}
	fmt.Printf("after DIP removal: %d connections of the dead DIP re-resolved, %d others moved (want 0)\n",
		reresolved, moved)
	if len(removed) != 1 || reresolved == 0 || moved != 0 {
		log.Fatal("BUG: DIP failure should move exactly the dead DIP's connections")
	}
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
