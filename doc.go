// Package duet is a from-scratch Go reproduction of "Duet: Cloud Scale Load
// Balancing with Hardware and Software" (SIGCOMM 2014): a hybrid load
// balancer that embeds VIP→DIP load balancing into the ECMP and tunneling
// tables of the datacenter's existing switches (HMux) and backstops them
// with a small fleet of Ananta-style software muxes (SMux).
//
// The root package re-exports the high-level API; the implementation lives
// in the internal packages:
//
//	internal/packet     byte-level IPv4 / IP-in-IP / TCP / UDP
//	internal/ecmp       shared 5-tuple hash, resilient hashing, WCMP
//	internal/addrmap    the copy-on-write address-keyed table every mux generation is built from
//	internal/hmux       the switch-embedded hardware mux (§3.1)
//	internal/smux       the Ananta-style software mux (§2.1)
//	internal/steer      the 5-tuple→DIP resolution entry every mux tier shares (§3.3.1)
//	internal/hostagent  decap, DSR, hash-consistent SNAT (§5.2, §6)
//	internal/bgp        LPM routing with /32-over-aggregate preference
//	internal/topology   container-based FatTree fabrics
//	internal/netsim     flow-level simulator (ECMP splitting, link loads)
//	internal/assign     the greedy MRU VIP placement + Sticky migration (§4)
//	internal/controller the Duet controller (§6)
//	internal/core       the assembled cluster with a byte-accurate datapath
//	internal/workload   Figure 15-calibrated trace generation
//	internal/latmodel   Figure 1-calibrated latency/CPU/cost models
//	internal/provision  SMux fleet sizing (Figures 16, 17, 20c)
//	internal/testbed    virtual-time driver of one cluster: the §7 testbed (Figures 11–14)
//
// Quick start:
//
//	cluster, _ := duet.NewCluster(duet.DefaultClusterConfig())
//	vip := duet.MustParseAddr("10.0.0.1")
//	_ = cluster.AddVIP(&duet.VIP{Addr: vip, Backends: []duet.Backend{
//		{Addr: duet.MustParseAddr("100.0.0.1"), Weight: 1},
//		{Addr: duet.MustParseAddr("100.0.0.2"), Weight: 1},
//	}})
//	_ = cluster.Place(duet.Target{Addr: vip, Switches: []duet.SwitchID{cluster.Topo.TorID(0, 0)}})
//	delivery, _ := cluster.Deliver(somePacketBytes)
//
// See examples/ for runnable programs and cmd/duetsim for the harness that
// regenerates every table and figure of the paper's evaluation (-fig 1a …
// 20c) and the model sweeps beyond it (-fig sweep-smux, sweep-tables,
// sweep-headroom, sweep-delta).
package duet
