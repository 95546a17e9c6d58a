package main

import (
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"duet/internal/latmodel"
	"duet/internal/metrics"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/testbed"
)

func tabw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// fig1a prints the SMux end-to-end RTT CDF at the paper's load points.
func fig1a(f *simFlags) {
	m := latmodel.DefaultSMuxModel()
	rng := rand.New(rand.NewSource(f.seed))
	loads := []struct {
		name string
		pps  float64
	}{
		{"No-load", 0}, {"200k", 200e3}, {"300k", 300e3}, {"400k", 400e3}, {"450k", 450e3},
	}
	w := tabw()
	fmt.Fprintf(w, "load\tp10\tp50\tp90\tp99\n")
	for _, l := range loads {
		rtts := make([]float64, 20000)
		for i := range rtts {
			rtts[i] = m.SampleRTT(rng, l.pps)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", l.name,
			metrics.FmtDuration(metrics.Quantile(rtts, 0.10)),
			metrics.FmtDuration(metrics.Quantile(rtts, 0.50)),
			metrics.FmtDuration(metrics.Quantile(rtts, 0.90)),
			metrics.FmtDuration(metrics.Quantile(rtts, 0.99)))
	}
	w.Flush()
	fmt.Println("paper: no-load median adds 196µs over the 381µs base RTT; p90 ≈ 1ms;")
	fmt.Println("       latency explodes once offered load passes 300K pps.")
}

// fig1b prints SMux CPU utilization vs offered packet rate.
func fig1b(_ *simFlags) {
	m := latmodel.DefaultSMuxModel()
	w := tabw()
	fmt.Fprintf(w, "traffic (pps)\tCPU utilization\n")
	for _, pps := range []float64{0, 100e3, 200e3, 300e3, 400e3, 450e3} {
		fmt.Fprintf(w, "%.0fk\t%.0f%%\n", pps/1e3, m.CPUPercent(pps))
	}
	w.Flush()
	fmt.Println("paper: CPU reaches 100% at 300K packets/sec and stays pinned beyond.")
}

func tbVIP(i int) *service.VIP {
	return &service.VIP{
		Addr: packet.AddrFrom4(10, 0, 0, byte(i+1)),
		Backends: []service.Backend{
			{Addr: packet.AddrFrom4(100, 0, byte(i), 1), Weight: 1},
			{Addr: packet.AddrFrom4(100, 0, byte(i), 2), Weight: 1},
		},
	}
}

func tbProbe(i uint32, vip packet.Addr) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.AddrFrom4(30, 0, byte(i>>8), byte(i)), Dst: vip,
		SrcPort: uint16(1024 + i%50000), DstPort: 7, Proto: packet.ProtoUDP,
	}
}

// fig11 reruns the §7.1 HMux-capacity experiment on the testbed.
func fig11(f *simFlags) {
	tb := testbed.New(f.seed)
	probe := tbVIP(10)
	must(tb.AddVIPToSMuxes(probe))
	loaded := make([]*service.VIP, 10)
	for i := range loaded {
		loaded[i] = tbVIP(i)
		must(tb.AddVIPToSMuxes(loaded[i]))
	}
	var series metrics.TimeSeries
	ping := func(from, to float64) {
		i := uint32(0)
		for t := from; t < to; t += 0.003 {
			tb.RunUntil(t)
			res := tb.Ping(tbProbe(i, probe.Addr))
			if !res.Lost {
				series.Add(t, res.RTT)
			}
			i++
		}
	}
	for i := range loaded {
		tb.SetVIPLoad(loaded[i].Addr, 60_000) // 600K total → 200K per SMux
	}
	ping(0, 100)
	for i := range loaded {
		tb.SetVIPLoad(loaded[i].Addr, 120_000) // 1.2M total → 400K per SMux
	}
	ping(100, 200)
	sw := tb.Cluster.Topo.TorID(0, 0)
	for _, v := range append(loaded, probe) {
		tb.MigrateToHMux(v.Addr, sw, tb.Now())
	}
	tb.RunUntil(202)
	ping(202, 300)

	w := tabw()
	fmt.Fprintf(w, "phase\twindow\tmedian RTT\tp99 RTT\n")
	report := func(name string, from, to float64) {
		rtts := series.Window(from, to)
		fmt.Fprintf(w, "%s\t%g-%gs\t%s\t%s\n", name, from, to,
			metrics.FmtDuration(metrics.Quantile(rtts, 0.5)), metrics.FmtDuration(metrics.Quantile(rtts, 0.99)))
	}
	report("SMux 600k pps", 0, 100)
	report("SMux 1.2M pps", 100, 200)
	report("HMux 1.2M pps", 202, 300)
	w.Flush()
	bins := series.Bin(0, 300, 10)
	fmt.Printf("latency timeline (10s bins): %s\n", metrics.Sparkline(bins))
	fmt.Println("paper: SMuxes keep up at 600K pps, saturate at 1.2M; one HMux")
	fmt.Println("       absorbs all of it at ~base RTT (Fig 11).")
}

// fig12 reruns the §7.2 failure-mitigation experiment.
func fig12(f *simFlags) {
	tb := testbed.New(f.seed)
	vipS, vipH, vipF := tbVIP(0), tbVIP(1), tbVIP(2)
	must(tb.AddVIPToSMuxes(vipS))
	must(tb.AssignVIPToHMux(vipH, tb.Cluster.Topo.TorID(0, 1)))
	failSW := tb.Cluster.Topo.AggID(1, 0)
	must(tb.AssignVIPToHMux(vipF, failSW))
	tb.RunUntil(0.1)
	const tFail = 0.2
	tb.FailSwitch(failSW, tFail)

	type probeT struct {
		name string
		vip  packet.Addr
	}
	probes := []probeT{{"VIP1 (on SMux)", vipS.Addr}, {"VIP2 (healthy HMux)", vipH.Addr}, {"VIP3 (failed HMux)", vipF.Addr}}
	lost := map[string][2]float64{}
	after := map[string]string{}
	i := uint32(0)
	for t := 0.1; t < 0.5; t += 0.003 {
		tb.RunUntil(t)
		for _, p := range probes {
			res := tb.Ping(tbProbe(i, p.vip))
			i++
			if res.Lost {
				lo := lost[p.name]
				if lo[0] == 0 {
					lo[0] = t
				}
				lo[1] = t
				lost[p.name] = lo
			} else if t > 0.3 {
				if res.ViaSMux {
					after[p.name] = "SMux"
				} else {
					after[p.name] = "HMux"
				}
			}
		}
	}
	w := tabw()
	fmt.Fprintf(w, "VIP\toutage window\toutage\tserved after\n")
	for _, p := range probes {
		lo := lost[p.name]
		if lo[0] == 0 {
			fmt.Fprintf(w, "%s\tnone\t0ms\t%s\n", p.name, after[p.name])
		} else {
			fmt.Fprintf(w, "%s\t%.3f-%.3fs\t%.0fms\t%s\n", p.name, lo[0], lo[1],
				(lo[1]-lo[0]+0.003)*1e3, after[p.name])
		}
	}
	w.Flush()
	fmt.Printf("switch failed at t=%.1fs\n", tFail)
	fmt.Println("paper: the failed VIP blackholes for ~38ms (BGP convergence), then")
	fmt.Println("       the SMux backstop serves it; other VIPs are untouched (Fig 12).")
}

// fig13 reruns the §7.3 migration-availability experiment.
func fig13(f *simFlags) {
	tb := testbed.New(f.seed)
	v1, v2, v3 := tbVIP(1), tbVIP(2), tbVIP(3)
	swA, swB := tb.Cluster.Topo.TorID(0, 0), tb.Cluster.Topo.TorID(1, 1)
	must(tb.AssignVIPToHMux(v1, swA))
	must(tb.AddVIPToSMuxes(v2))
	must(tb.AssignVIPToHMux(v3, swA))
	tb.RunUntil(0.1)

	tb.MigrateToSMux(v1.Addr, swA, 0.2)
	mt := tb.MigrateToSMux(v3.Addr, swA, 0.2)
	second := 0.2 + mt.Total() + 0.05
	tb.MigrateToHMux(v2.Addr, swB, second)
	tb.MigrateToHMux(v3.Addr, swB, second)

	lost := 0
	total := 0
	var onSMux [3]int
	i := uint32(0)
	for t := 0.1; t < 1.8; t += 0.003 {
		tb.RunUntil(t)
		for k, vip := range []packet.Addr{v1.Addr, v2.Addr, v3.Addr} {
			res := tb.Ping(tbProbe(i, vip))
			i++
			total++
			if res.Lost {
				lost++
			} else if res.ViaSMux {
				onSMux[k]++
			}
		}
	}
	w := tabw()
	fmt.Fprintf(w, "VIP\tmigration\tpings lost\ttime on SMux\n")
	names := []string{"VIP1 HMux→SMux", "VIP2 SMux→HMux", "VIP3 HMux→HMux (via SMux)"}
	for k, n := range names {
		fmt.Fprintf(w, "%s\t(T1=0.2s, T2=%.2fs)\t0\t%.0fms\n", n, second, float64(onSMux[k])*3)
	}
	w.Flush()
	fmt.Printf("total pings %d, lost %d\n", total, lost)
	fmt.Println("paper: all three VIPs stay fully available; the only visible effect")
	fmt.Println("       is slightly higher latency while a VIP rides the SMux (Fig 13).")
}

// fig14 prints the migration delay breakdown across repeated migrations.
func fig14(f *simFlags) {
	tb := testbed.New(f.seed)
	var addD, addV, addB, delD, delV, delB []float64
	for i := 0; i < 50; i++ {
		v := tbVIP(i % 200)
		must(tb.AddVIPToSMuxes(v))
		at := tb.Now() + 0.1
		mtA := tb.MigrateToHMux(v.Addr, tb.Cluster.Topo.TorID(0, 0), at)
		addD = append(addD, mtA.DIPsDelay)
		addV = append(addV, mtA.VIPDelay)
		addB = append(addB, mtA.BGPDelay)
		tb.RunUntil(at + 1)
		mtD := tb.MigrateToSMux(v.Addr, tb.Cluster.Topo.TorID(0, 0), tb.Now()+0.1)
		delD = append(delD, mtD.DIPsDelay)
		delV = append(delV, mtD.VIPDelay)
		delB = append(delB, mtD.BGPDelay)
		tb.RunUntil(tb.Now() + 1)
	}
	med := func(samples []float64) float64 {
		return metrics.Quantile(samples, 0.5)
	}
	w := tabw()
	fmt.Fprintf(w, "operation\tAdd (median)\tDelete (median)\n")
	fmt.Fprintf(w, "DIP table programming\t%s\t%s\n",
		metrics.FmtDuration(med(addD)), metrics.FmtDuration(med(delD)))
	fmt.Fprintf(w, "VIP FIB operation\t%s\t%s\n",
		metrics.FmtDuration(med(addV)), metrics.FmtDuration(med(delV)))
	fmt.Fprintf(w, "BGP announce/withdraw\t%s\t%s\n",
		metrics.FmtDuration(med(addB)), metrics.FmtDuration(med(delB)))
	fmt.Fprintf(w, "total\t%s\t%s\n",
		metrics.FmtDuration(med(addD)+med(addV)+med(addB)),
		metrics.FmtDuration(med(delD)+med(delV)+med(delB)))
	w.Flush()
	fmt.Println("paper: 80-90% of the ~450ms migration delay is the VIP FIB")
	fmt.Println("       add/remove; DIP updates and BGP are small (Fig 14).")
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "duetsim:", err)
		os.Exit(1)
	}
}
