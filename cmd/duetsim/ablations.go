package main

import (
	"fmt"

	"duet/internal/assign"
	"duet/internal/clock"
	"duet/internal/core"
	"duet/internal/hmux"
	"duet/internal/netsim"
	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/topology"
)

// The ablations take one design choice of DESIGN.md away (or swap in the §9
// alternative) and print what the choice was buying — EXPERIMENTS.md's
// ablation table, one figure per row that is not already a sweep.

func ablationBackends(n int) []service.Backend {
	bs := make([]service.Backend, n)
	for i := range bs {
		bs[i] = service.Backend{Addr: packet.AddrFrom4(100, 0, 0, byte(i+1)), Weight: 1}
	}
	return bs
}

// tcpFlow is the i-th client flow to vip:80.
func tcpFlow(i uint32, vip packet.Addr) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.AddrFrom4(30, byte(i>>16), byte(i>>8), byte(i)), Dst: vip,
		SrcPort: uint16(1024 + i%50000), DstPort: 80, Proto: packet.ProtoTCP,
	}
}

// ablationSharedHash takes DESIGN.md #1 away. Every tier resolves against the
// same steer.Entry construction, so the only way left to un-share the hash is
// to hand the backstop SMux the backends in another order: a flow that falls
// from the HMux to that SMux lands on another DIP.
func ablationSharedHash(*simFlags) {
	vip := packet.MustParseAddr("10.0.0.1")
	backends := ablationBackends(8)
	permuted := append([]service.Backend(nil), backends...)
	permuted[0], permuted[7] = permuted[7], permuted[0]
	permuted[2], permuted[5] = permuted[5], permuted[2]

	hm := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	must(hm.AddVIP(&service.VIP{Addr: vip, Backends: backends}))
	// No connection table: the rows compare the hash alone, as for a flow
	// the SMux first sees at failover.
	shared := smux.New(smux.Config{SelfAddr: 1, DefaultMode: steer.ModeStateless})
	must(shared.AddVIP(&service.VIP{Addr: vip, Backends: backends}))
	unshared := smux.New(smux.Config{SelfAddr: 2, DefaultMode: steer.ModeStateless})
	must(unshared.AddVIP(&service.VIP{Addr: vip, Backends: permuted}))
	// The NIC tier in front of the first SMux resolves through its table.
	nic := nmux.New(nmux.Config{SelfAddr: 1, Steer: shared.Steer()})
	must(nic.AddVIP(&service.VIP{Addr: vip, Backends: backends}))

	const flows = 5000
	var badShared, badNIC, badUnshared int
	for i := uint32(0); i < flows; i++ {
		tuple := tcpFlow(i, vip)
		h, err := hm.Lookup(tuple)
		must(err)
		if s, _ := shared.Lookup(tuple); s != h {
			badShared++
		}
		if s, _ := nic.Lookup(tuple); s != h {
			badNIC++
		}
		if s, _ := unshared.Lookup(tuple); s != h {
			badUnshared++
		}
	}
	tw := tabw()
	fmt.Fprintf(tw, "the tier a flow falls to\tflows remapped leaving the HMux\n")
	fmt.Fprintf(tw, "SMux, group in the HMux's order (shared hash)\t%.1f%%\n", 100*float64(badShared)/flows)
	fmt.Fprintf(tw, "NIC tier paired with that SMux\t%.1f%%\n", 100*float64(badNIC)/flows)
	fmt.Fprintf(tw, "SMux, group in a permuted order (no shared hash)\t%.1f%%\n", 100*float64(badUnshared)/flows)
	tw.Flush()
	fmt.Printf("(%d flows over %d DIPs, 4 of them swapped)\n", flows, len(backends))
	fmt.Println("every connection a failover or a migration moves between mux types")
	fmt.Println("survives only because both build the identical group (§3.3.1).")
}

// ablationCandidates takes DESIGN.md #4 away: the greedy scan evaluates every
// switch instead of the §4.2 reduced candidate set.
func ablationCandidates(f *simFlags) {
	topo := simTopo(f)
	w := simWorkload(f, topo, sweepRate(f), 1)
	now := clock.Wall()
	tw := tabw()
	fmt.Fprintf(tw, "candidate scan\ttraffic on HMux\tVIPs assigned\tMRU\tcompute time\n")
	var secs [2]float64
	for i, full := range []bool{false, true} {
		o := assignOpts(f)
		o.FullScan = full
		start := now()
		asg, err := assign.Compute(netsim.New(topo), w, 0, o)
		must(err)
		secs[i] = now() - start
		name := "reduced (least-loaded ToR per container, Aggs, Cores)"
		if full {
			name = "every switch"
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%d\t%.3f\t%.2fs\n",
			name, 100*asg.AssignedFraction(), asg.NumAssigned, asg.MRU, secs[i])
	}
	tw.Flush()
	fmt.Printf("the full scan costs %.1fx the time (wall clock, the one column -seed does\n", secs[1]/secs[0])
	fmt.Println("not fix) for the same coverage: the ToRs of a container are symmetric, so")
	fmt.Println("trying only its least-loaded one loses nothing (§4.2).")
}

// ablationReplication swaps the SMux backstop for the §9 alternative: the
// VIP's entries replicated on two HMuxes that announce the same /32.
func ablationReplication(*simFlags) {
	const flows = 2000
	vip := packet.MustParseAddr("10.0.0.1")
	mk := func() *core.Cluster {
		c, err := core.New(core.Config{
			Topology:  topology.TestbedConfig(),
			NumSMuxes: 3,
			Aggregate: packet.MustParsePrefix("10.0.0.0/8"),
		})
		must(err)
		must(c.AddVIP(&service.VIP{Addr: vip, Backends: ablationBackends(2)}))
		return c
	}
	// send returns where each flow landed and the share the HMuxes served.
	send := func(c *core.Cluster) ([]packet.Addr, float64) {
		dips := make([]packet.Addr, flows)
		hw := 0
		for i := range dips {
			d, err := c.Deliver(packet.BuildTCP(tcpFlow(uint32(i), vip), packet.TCPSyn, nil))
			must(err)
			dips[i] = d.DIP
			if d.Hops()[0].Kind == "hmux" {
				hw++
			}
		}
		return dips, 100 * float64(hw) / flows
	}
	moved := func(a, b []packet.Addr) int {
		n := 0
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}
	tw := tabw()
	fmt.Fprintf(tw, "design\tswitches holding the VIP\tin hardware before\tafter one switch fails\tflows remapped\n")

	// Duet's choice: one home, the SMuxes behind it.
	c := mk()
	home := c.Topo.AggID(0, 0)
	must(c.Place(core.Target{Addr: vip, Switches: []topology.SwitchID{home}}))
	before, hwBefore := send(c)
	c.FailSwitch(home)
	after, hwAfter := send(c)
	fmt.Fprintf(tw, "SMux backstop (Duet)\t1\t%.1f%%\t%.1f%%\t%d\n", hwBefore, hwAfter, moved(before, after))

	// §9: two replicas; the survivor absorbs the failed one's share.
	c = mk()
	reps := []topology.SwitchID{c.Topo.AggID(0, 0), c.Topo.AggID(1, 0)}
	must(c.Place(core.Target{Addr: vip, Switches: reps}))
	copies := len(c.Replicas(vip))
	before, hwBefore = send(c)
	c.FailSwitch(reps[0])
	after, hwAfter = send(c)
	fmt.Fprintf(tw, "%d HMux replicas (§9)\t%d\t%.1f%%\t%.1f%%\t%d\n", copies, copies, hwBefore, hwAfter, moved(before, after))

	// And back: withdrawing the replicas is the usual step through the SMuxes.
	must(c.Place(core.Target{Addr: vip}))
	after, hwAfter = send(c)
	fmt.Fprintf(tw, "  … replicas withdrawn\t%d\t–\t%.1f%%\t%d\n", len(c.Replicas(vip)), hwAfter, moved(before, after))
	tw.Flush()
	fmt.Println("the shared hash keeps every flow on its DIP in both designs; replication")
	fmt.Println("keeps a failure in hardware at the price of one more copy of the VIP's")
	fmt.Println("table entries per replica and a control plane that tracks the set (§9).")
}

// ablationBinPacking swaps the paper's min-MRU greedy for the §9 best-fit
// (L2) packing direction.
func ablationBinPacking(f *simFlags) {
	topo := simTopo(f)
	w := simWorkload(f, topo, sweepRate(f), 1)
	tw := tabw()
	fmt.Fprintf(tw, "placement\ttraffic on HMux\tVIPs assigned\tfinal MRU\n")
	for _, s := range []struct {
		name string
		s    assign.Strategy
	}{{"greedy min-MRU (paper)", assign.Greedy}, {"best-fit L2 (§9)", assign.BestFit}} {
		o := assignOpts(f)
		o.Strategy = s.s
		asg, err := assign.Compute(netsim.New(topo), w, 0, o)
		must(err)
		fmt.Fprintf(tw, "%s\t%.1f%%\t%d\t%.3f\n", s.name, 100*asg.AssignedFraction(), asg.NumAssigned, asg.MRU)
	}
	tw.Flush()
	fmt.Println("best-fit packing buys no coverage over the greedy and does not lower the")
	fmt.Println("final MRU: the paper's simple rule is adequate.")
}
