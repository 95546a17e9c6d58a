// SNAT: reproduces §5.2's stateless outbound-connection trick. Switches
// cannot keep per-connection NAT state, so the host agent picks the source
// port for an outbound connection such that the hash of the *inbound
// response* 5-tuple lands on its own DIP's ECMP entry. The controller owns
// the VIP's port space and grants the agent a block of it; the example
// allocates ports from that block, then builds the actual response packets
// and pushes them through the cluster's HMux to prove every one is tunneled
// straight back, and finally closes the connections and shows the ports
// return to the block.
package main

import (
	"fmt"
	"log"

	"duet"
	"duet/internal/hostagent"
	"duet/internal/packet"
)

func main() {
	cluster, err := duet.NewCluster(duet.DefaultClusterConfig())
	if err != nil {
		log.Fatal(err)
	}
	vip := duet.MustParseAddr("10.0.0.1")
	backends := []duet.Backend{
		{Addr: duet.MustParseAddr("100.0.0.1"), Weight: 1},
		{Addr: duet.MustParseAddr("100.0.0.2"), Weight: 1},
		{Addr: duet.MustParseAddr("100.0.0.3"), Weight: 1},
		{Addr: duet.MustParseAddr("100.0.0.4"), Weight: 1},
	}
	if err := cluster.AddVIP(&duet.VIP{Addr: vip, Backends: backends}); err != nil {
		log.Fatal(err)
	}
	// The switch the VIP is assigned to.
	if err := cluster.Place(duet.Target{Addr: vip, Switches: []duet.SwitchID{cluster.Topo.AggID(0, 0)}}); err != nil {
		log.Fatal(err)
	}
	ctl := duet.NewController(cluster, duet.DefaultAssignOptions())

	// Our server is DIP #3. Its host agent shares the HMux's hash function,
	// predicts a response's DIP through the slot table the muxes hold (an
	// SMux's steer table: every SMux and switch installs one entry per VIP),
	// and asks the controller for a block of the VIP's port space; no other
	// DIP of the VIP is ever granted the same ports.
	self := backends[2].Addr
	snat := hostagent.NewSNAT(vip, self, cluster.SMuxes[0].Steer())
	reg, rec := cluster.Telemetry()
	snat.SetTelemetry(reg, rec, uint32(self))
	lo, hi, err := ctl.AllocateSNATRange(vip, self)
	if err != nil {
		log.Fatal(err)
	}
	snat.AssignRange(lo, hi)

	remote := duet.MustParseAddr("8.8.8.8")
	fmt.Printf("DIP %s opening outbound connections to %s via VIP %s, ports %d-%d granted by the controller\n\n",
		self, remote, vip, lo, hi)
	fmt.Println("remote-port  chosen-src-port  response-delivered-to  ok")

	const conns = 12
	var ports [conns]uint16
	good := 0
	for i := 0; i < conns; i++ {
		remotePort := uint16(443 + i)
		port, err := snat.AllocatePort(remote, remotePort, packet.ProtoTCP)
		if err != nil {
			log.Fatal(err)
		}
		ports[i] = port
		// The connection leaves as vip:port → remote:remotePort (DSR puts the
		// VIP in the source); build the response exactly as it would arrive
		// from the Internet at the HMux, the same tuple reversed.
		out := duet.FiveTuple{
			Src: vip, Dst: remote,
			SrcPort: port, DstPort: remotePort, Proto: packet.ProtoTCP,
		}
		resp := duet.BuildTCP(out.Reverse(), duet.TCPAck|duet.TCPSyn, nil)
		d, err := cluster.Deliver(resp)
		if err != nil {
			log.Fatal(err)
		}
		ok := d.DIP == self && d.Hops()[0].Kind == "hmux"
		if ok {
			good++
		}
		fmt.Printf("%11d  %15d  %21s  %v\n", remotePort, port, d.DIP, ok)
	}
	fmt.Printf("\n%d/%d responses returned to the right DIP with ZERO state on the switch\n", good, conns)
	fmt.Printf("(the agent probed %.1f candidate ports per allocation — ~#DIPs, as expected)\n",
		float64(snat.Probed())/conns)
	if good != conns {
		log.Fatal("BUG: hash-consistent SNAT failed")
	}

	// The connections close: their ports go back to the block, and the next
	// connection to the first remote port is given the first port again.
	for _, port := range ports {
		snat.ReleasePort(port)
	}
	again, err := snat.AllocatePort(remote, 443, packet.ProtoTCP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connections closed: %d ports released, %d in use after reopening the first (port %d again)\n",
		conns, snat.Used(), again)
	if snat.Used() != 1 || again != ports[0] {
		log.Fatal("BUG: released ports were not returned to the block")
	}
}
