package duet_test

import (
	"fmt"

	"duet"
)

// ExampleCluster_Deliver shows the end-to-end datapath: a VIP served by the
// SMux backstop, then by a hardware mux, with the same flow mapping to the
// same DIP in both phases (the shared-hash invariant).
func ExampleCluster_Deliver() {
	cluster, err := duet.NewCluster(duet.ClusterConfig{
		Topology: duet.TopologyConfig{
			Containers:       2,
			ToRsPerContainer: 2,
			AggsPerContainer: 2,
			Cores:            2,
			ServersPerToR:    4,
		},
		NumSMuxes: 2,
		Aggregate: duet.MustParsePrefix("10.0.0.0/8"),
	})
	if err != nil {
		panic(err)
	}

	vip := duet.MustParseAddr("10.0.0.1")
	if err := cluster.AddVIP(&duet.VIP{Addr: vip, Backends: []duet.Backend{
		{Addr: duet.MustParseAddr("100.0.0.1"), Weight: 1},
		{Addr: duet.MustParseAddr("100.0.0.2"), Weight: 1},
	}}); err != nil {
		panic(err)
	}

	pkt := duet.BuildTCP(duet.FiveTuple{
		Src: duet.MustParseAddr("30.0.0.9"), Dst: vip,
		SrcPort: 5555, DstPort: 80, Proto: 6,
	}, duet.TCPSyn, nil)

	d1, err := cluster.Deliver(pkt)
	if err != nil {
		panic(err)
	}
	fmt.Println("phase 1:", d1.Hops()[0].Kind, "->", d1.DIP)

	if err := cluster.Place(duet.Target{Addr: vip, Switches: []duet.SwitchID{cluster.Topo.TorID(0, 0)}}); err != nil {
		panic(err)
	}
	d2, err := cluster.Deliver(pkt)
	if err != nil {
		panic(err)
	}
	fmt.Println("phase 2:", d2.Hops()[0].Kind, "->", d2.DIP)
	fmt.Println("same DIP across migration:", d1.DIP == d2.DIP)

	// Output:
	// phase 1: smux -> 100.0.0.2
	// phase 2: hmux -> 100.0.0.2
	// same DIP across migration: true
}

// ExampleGenerateWorkload shows trace generation and its headline skew.
func ExampleGenerateWorkload() {
	cluster, err := duet.NewCluster(duet.DefaultClusterConfig())
	if err != nil {
		panic(err)
	}
	cfg := duet.WorkloadConfig{
		NumVIPs:      100,
		TotalRate:    1e11,
		Epochs:       2,
		Seed:         7,
		TrafficSkew:  1.6,
		MaxDIPs:      50,
		InternetFrac: 0.3,
		ChurnStdDev:  0.25,
	}
	w, err := duet.GenerateWorkload(cfg, cluster)
	if err != nil {
		panic(err)
	}
	fmt.Println("VIPs:", len(w.VIPs))
	fmt.Println("epochs:", w.NumEpochs())
	fmt.Printf("epoch 0 load: %.0f Gbps\n", w.TotalRate(0)/1e9)

	// Output:
	// VIPs: 100
	// epochs: 2
	// epoch 0 load: 100 Gbps
}
