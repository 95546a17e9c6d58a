package main

import (
	"fmt"
	"os"

	"duet/internal/packet"
	"duet/internal/testbed"
)

// figObs demonstrates the observability plane end to end on a virtual clock:
// a flood cluster scraped once per second through a failover (the Figure 12
// pre-convergence blackhole) and an SMux overload (the Figure 1 capacity
// cliff), printing the key series and the watchdog alert log.
func figObs(f *simFlags) {
	fl, err := testbed.NewFlood(testbed.FloodConfig{SMuxCapacityPPS: 1000})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	_, rec := fl.Cluster.Telemetry()
	rec.SetSampleEvery(64)
	var now float64
	p := fl.Observe(64, func() float64 { return now })

	send := func(vip packet.Addr, n int, seed uint32) int {
		failed := 0
		for i := 0; i < n; i++ {
			seq := seed + uint32(i)
			pkt := packet.BuildTCP(tcpFlow(seq, vip), packet.TCPSyn, nil)
			if _, err := fl.Cluster.Deliver(pkt); err != nil {
				failed++
			}
		}
		return failed
	}
	moderate := func(seed uint32) {
		for _, vip := range fl.VIPs {
			send(vip, 50, seed)
		}
	}

	type step struct {
		label  string
		action func(seed uint32)
	}
	script := []step{
		{"steady state", moderate},
		{"steady state", moderate},
		{"switch failure blackholes VIP 0", func(seed uint32) {
			fl.InjectBlackhole(fl.VIPs[0])
			moderate(seed)
		}},
		{"routing converged; SMux overload", func(seed uint32) {
			fl.Heal(fl.VIPs[0])
			send(fl.VIPs[6], 2500, seed)
			send(fl.VIPs[7], 2500, seed+1<<20)
		}},
		{"load drained", func(seed uint32) { send(fl.VIPs[1], 50, seed) }},
	}

	fmt.Printf("%-4s %-34s %10s %8s %10s %8s\n",
		"t", "phase", "deliver/s", "err/s", "smux/s", "healthy")
	for i, st := range script {
		now = float64(i)
		st.action(uint32(i) << 16)
		p.Tick()
		dump := p.Dump(1)
		rate := func(name string) float64 {
			for _, s := range dump.Series {
				if s.Name == name && len(s.Points) > 0 {
					return s.Points[len(s.Points)-1].Rate
				}
			}
			return 0
		}
		fmt.Printf("%-4.0f %-34s %10.0f %8.0f %10.0f %8v\n",
			now, st.label, rate("core.deliver.packets"), rate("core.deliver.errors"),
			rate("smux.packets"), p.Healthy())
	}

	fmt.Println("\nwatchdog alert log:")
	for _, a := range p.Alerts() {
		verb := "resolved"
		if a.Firing {
			verb = "FIRING"
		}
		fmt.Printf("  t=%-3.0f %-28s %-9s value=%.4g threshold=%.4g\n",
			a.Time, a.Rule, verb, a.Value, a.Threshold)
	}
	if f.verbose {
		fmt.Println("\nflight recorder (slo-alert events):")
		for _, e := range rec.Snapshot() {
			fmt.Printf("  %s\n", e.String())
		}
	}
}
