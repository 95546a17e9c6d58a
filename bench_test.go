// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out. Each
// bench reports the figure's headline quantity via b.ReportMetric so
// `go test -bench=. -benchmem` doubles as a results table:
//
//	Fig 1   µs-added-latency per load point
//	Fig 11  SMux vs HMux median RTT under 1.2M pps
//	Fig 12  failover outage (ms)
//	Fig 13  pings lost during migration
//	Fig 14  FIB share of migration delay
//	Fig 15  byte share of the top 10% of VIPs
//	Fig 16  Ananta/Duet SMux ratio
//	Fig 17  Ananta-vs-Duet latency ratio at equal fleets
//	Fig 18  Random/Duet SMux ratio
//	Fig 19  max-utilization increase under failure
//	Fig 20  HMux traffic fraction and shuffle fraction per strategy
package duet_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"duet/internal/assign"
	"duet/internal/core"
	"duet/internal/hmux"
	"duet/internal/latmodel"
	"duet/internal/metrics"
	"duet/internal/netsim"
	"duet/internal/obs"
	"duet/internal/packet"
	"duet/internal/provision"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/telemetry"
	"duet/internal/testbed"
	"duet/internal/topology"
	"duet/internal/workload"
)

// benchTopo is the scaled fabric all simulation benches share.
func benchTopo() *topology.Topology {
	return topology.MustNew(topology.Config{
		Containers:       8,
		ToRsPerContainer: 16,
		AggsPerContainer: 4,
		Cores:            16,
		ServersPerToR:    32,
	})
}

// benchRate keeps fabric utilization in the paper's operating regime for
// the 128-rack bench fabric (bisection 5.1 Tbps).
const benchRate = 0.5e12

func benchWorkload(b *testing.B, topo *topology.Topology, epochs int) *workload.Workload {
	b.Helper()
	w, err := workload.Generate(workload.Config{
		NumVIPs: 800, TotalRate: benchRate, Epochs: epochs, Seed: 1,
		TrafficSkew: 1.6, MaxDIPs: 500, InternetFrac: 0.3, ChurnStdDev: 0.25,
	}, topo)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkFig01SMuxLatency regenerates the Figure 1a latency points.
func BenchmarkFig01SMuxLatency(b *testing.B) {
	m := latmodel.DefaultSMuxModel()
	rng := rand.New(rand.NewSource(1))
	var med200, med400 float64
	for i := 0; i < b.N; i++ {
		var c200, c400 []float64
		for j := 0; j < 5000; j++ {
			c200 = append(c200, m.SampleLatency(rng, 200e3))
			c400 = append(c400, m.SampleLatency(rng, 400e3))
		}
		med200, med400 = metrics.Quantile(c200, 0.5), metrics.Quantile(c400, 0.5)
	}
	b.ReportMetric(med200*1e6, "µs-at-200k")
	b.ReportMetric(med400*1e6, "µs-at-400k")
}

// BenchmarkFig11HMuxCapacity runs the testbed capacity experiment.
func BenchmarkFig11HMuxCapacity(b *testing.B) {
	var smuxMed, hmuxMed float64
	for i := 0; i < b.N; i++ {
		tb := testbed.New(4)
		probe := benchVIP(10)
		mustB(b, tb.AddVIPToSMuxes(probe))
		for j := 0; j < 10; j++ {
			v := benchVIP(j)
			mustB(b, tb.AddVIPToSMuxes(v))
			tb.SetVIPLoad(v.Addr, 120_000) // 1.2M pps aggregate
		}
		var sm []float64
		k := uint32(0)
		for t := 0.0; t < 3; t += 0.003 {
			tb.RunUntil(t)
			if r := tb.Ping(probe.Addr, benchTuple(k, probe.Addr)); !r.Lost {
				sm = append(sm, r.RTT)
			}
			k++
		}
		sw := tb.Topo.TorID(0, 0)
		for j := 0; j < 10; j++ {
			tb.MigrateToHMux(benchVIP(j).Addr, sw, tb.Now())
		}
		tb.MigrateToHMux(probe.Addr, sw, tb.Now())
		tb.RunUntil(5)
		var hm []float64
		for t := 5.0; t < 8; t += 0.003 {
			tb.RunUntil(t)
			if r := tb.Ping(probe.Addr, benchTuple(k, probe.Addr)); !r.Lost {
				hm = append(hm, r.RTT)
			}
			k++
		}
		smuxMed, hmuxMed = metrics.Quantile(sm, 0.5), metrics.Quantile(hm, 0.5)
	}
	b.ReportMetric(smuxMed*1e3, "ms-smux-1.2Mpps")
	b.ReportMetric(hmuxMed*1e3, "ms-hmux-1.2Mpps")
	b.ReportMetric(smuxMed/hmuxMed, "capacity-latency-ratio")
}

// BenchmarkFig12Failover measures the failover outage window.
func BenchmarkFig12Failover(b *testing.B) {
	var outage float64
	for i := 0; i < b.N; i++ {
		tb := testbed.New(int64(5 + i))
		v := benchVIP(2)
		failSW := tb.Topo.AggID(1, 0)
		mustB(b, tb.AssignVIPToHMux(v, failSW))
		tb.RunUntil(0.1)
		tb.FailSwitch(failSW, 0.2)
		first, last := -1.0, -1.0
		k := uint32(0)
		for t := 0.1; t < 0.5; t += 0.003 {
			tb.RunUntil(t)
			if tb.Ping(v.Addr, benchTuple(k, v.Addr)).Lost {
				if first < 0 {
					first = t
				}
				last = t
			}
			k++
		}
		outage = (last - first + 0.003) * 1e3
	}
	b.ReportMetric(outage, "ms-outage")
}

// BenchmarkFig13Migration counts pings lost during stepping-stone migration.
func BenchmarkFig13Migration(b *testing.B) {
	lost := 0
	for i := 0; i < b.N; i++ {
		tb := testbed.New(6)
		v := benchVIP(3)
		swA, swB := tb.Topo.TorID(0, 0), tb.Topo.TorID(1, 1)
		mustB(b, tb.AssignVIPToHMux(v, swA))
		tb.RunUntil(0.1)
		mt := tb.MigrateToSMux(v.Addr, swA, 0.2)
		tb.MigrateToHMux(v.Addr, swB, 0.2+mt.Total()+0.05)
		lost = 0
		k := uint32(0)
		for t := 0.1; t < 1.5; t += 0.003 {
			tb.RunUntil(t)
			if tb.Ping(v.Addr, benchTuple(k, v.Addr)).Lost {
				lost++
			}
			k++
		}
	}
	b.ReportMetric(float64(lost), "pings-lost")
}

// BenchmarkFig14Breakdown measures the FIB share of the migration delay.
func BenchmarkFig14Breakdown(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		tb := testbed.New(7)
		v := benchVIP(0)
		mustB(b, tb.AddVIPToSMuxes(v))
		mt := tb.MigrateToHMux(v.Addr, tb.Topo.TorID(0, 0), 0.1)
		frac = mt.VIPDelay / mt.Total()
	}
	b.ReportMetric(frac*100, "%-FIB-of-total")
}

// BenchmarkFig15WorkloadGen regenerates the trace and reports its skew.
func BenchmarkFig15WorkloadGen(b *testing.B) {
	topo := benchTopo()
	var top10 float64
	for i := 0; i < b.N; i++ {
		w := benchWorkload(b, topo, 1)
		pts := workload.CumulativeShare(w.ByteShares(0))
		for _, p := range pts {
			if p.VIPFrac >= 0.10 {
				top10 = p.CumFrac
				break
			}
		}
	}
	b.ReportMetric(top10*100, "%-bytes-in-top-10%-VIPs")
}

// BenchmarkFig16SMuxReduction reports the Ananta/Duet fleet ratio.
func BenchmarkFig16SMuxReduction(b *testing.B) {
	topo := benchTopo()
	w := benchWorkload(b, topo, 1)
	var ratio, frac float64
	for i := 0; i < b.N; i++ {
		asg, err := assign.Compute(netsim.New(topo), w, 0, assign.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		an := provision.Ananta(asg.TotalRate, provision.ProductionSMux())
		du := provision.Duet(asg, w, 0, topo, provision.ProductionSMux(),
			provision.DefaultFailureModel(), 0)
		ratio = float64(an) / float64(du.Total)
		frac = asg.AssignedFraction()
	}
	b.ReportMetric(ratio, "ananta/duet-smuxes")
	b.ReportMetric(frac*100, "%-traffic-on-hmux")
}

// BenchmarkFig17Latency reports the latency gap at equal fleet size.
func BenchmarkFig17Latency(b *testing.B) {
	topo := benchTopo()
	w := benchWorkload(b, topo, 1)
	asg, err := assign.Compute(netsim.New(topo), w, 0, assign.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sm := latmodel.DefaultSMuxModel()
	hm := latmodel.DefaultHMuxModel()
	var gap float64
	for i := 0; i < b.N; i++ {
		fleet := provision.Duet(asg, w, 0, topo, provision.ProductionSMux(),
			provision.DefaultFailureModel(), 0)
		duet := provision.DuetMedianLatency(asg, fleet.Total, 800, sm, hm)
		ananta := provision.LatencyVsSMuxes(asg.TotalRate, 800, fleet.Total, sm)
		gap = ananta / duet
	}
	b.ReportMetric(gap, "ananta/duet-latency")
}

// BenchmarkFig18GreedyVsRandom reports the Random/Duet fleet ratio.
func BenchmarkFig18GreedyVsRandom(b *testing.B) {
	topo := benchTopo()
	w := benchWorkload(b, topo, 1)
	var ratio float64
	for i := 0; i < b.N; i++ {
		g, err := assign.Compute(netsim.New(topo), w, 0, assign.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ro := assign.DefaultOptions()
		ro.Strategy = assign.Random
		r, err := assign.Compute(netsim.New(topo), w, 0, ro)
		if err != nil {
			b.Fatal(err)
		}
		fm := provision.DefaultFailureModel()
		gd := provision.Duet(g, w, 0, topo, provision.ProductionSMux(), fm, 0)
		rd := provision.Duet(r, w, 0, topo, provision.ProductionSMux(), fm, 0)
		ratio = float64(rd.Total) / float64(gd.Total)
	}
	b.ReportMetric(ratio, "random/duet-smuxes")
}

// BenchmarkFig19FailureUtil reports max-utilization growth under failures.
func BenchmarkFig19FailureUtil(b *testing.B) {
	topo := benchTopo()
	w := benchWorkload(b, topo, 1)
	net := netsim.New(topo)
	asg, err := assign.Compute(net, w, 0, assign.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	smuxRacks := assign.SMuxRacks(topo, 16)
	var delta float64
	for i := 0; i < b.N; i++ {
		net.ClearFailures()
		normalLoads, err := assign.FullLoads(net, w, 0, asg, smuxRacks)
		if err != nil {
			b.Fatal(err)
		}
		normal, _ := net.MaxUtilization(normalLoads)
		net.FailContainer(i % topo.Cfg.Containers)
		failLoads, err := assign.FullLoads(net, w, 0, asg, smuxRacks)
		if err != nil {
			b.Fatal(err)
		}
		failed, _ := net.MaxUtilization(failLoads)
		delta = failed - normal
	}
	net.ClearFailures()
	b.ReportMetric(delta*100, "%-util-increase")
}

// BenchmarkFig20MigrationStrategies reports sticky-vs-nonsticky shuffle.
func BenchmarkFig20MigrationStrategies(b *testing.B) {
	topo := benchTopo()
	w := benchWorkload(b, topo, 4)
	var stickyShuf, freshShuf, stickyFrac float64
	for i := 0; i < b.N; i++ {
		opts := assign.DefaultOptions()
		prev, err := assign.Compute(netsim.New(topo), w, 0, opts)
		if err != nil {
			b.Fatal(err)
		}
		sticky, err := assign.ComputeSticky(netsim.New(topo), w, 1, prev, opts)
		if err != nil {
			b.Fatal(err)
		}
		fresh, err := assign.Compute(netsim.New(topo), w, 1, opts)
		if err != nil {
			b.Fatal(err)
		}
		total := w.TotalRate(1)
		stickyShuf = assign.ShuffledRate(prev, sticky, w.Rates[1]) / total
		freshShuf = assign.ShuffledRate(prev, fresh, w.Rates[1]) / total
		stickyFrac = sticky.AssignedFraction()
	}
	b.ReportMetric(stickyShuf*100, "%-shuffled-sticky")
	b.ReportMetric(freshShuf*100, "%-shuffled-nonsticky")
	b.ReportMetric(stickyFrac*100, "%-traffic-on-hmux")
}

// BenchmarkAblationSharedHash measures the connection carnage if HMux and
// SMux did NOT share a hash: the backstop is programmed with a permuted
// backend order, so failover remaps flows.
func BenchmarkAblationSharedHash(b *testing.B) {
	backends := make([]service.Backend, 8)
	for i := range backends {
		backends[i] = service.Backend{Addr: packet.AddrFrom4(100, 0, 0, byte(i+1)), Weight: 1}
	}
	vip := packet.MustParseAddr("10.0.0.1")
	permuted := append([]service.Backend(nil), backends...)
	permuted[0], permuted[7] = permuted[7], permuted[0]
	permuted[2], permuted[5] = permuted[5], permuted[2]

	hm := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	mustB(b, hm.AddVIP(&service.VIP{Addr: vip, Backends: backends}))
	shared := smux.New(smux.Config{SelfAddr: 1, DisableConnTracking: true})
	mustB(b, shared.AddVIP(&service.VIP{Addr: vip, Backends: backends}))
	unshared := smux.New(smux.Config{SelfAddr: 2, DisableConnTracking: true})
	mustB(b, unshared.AddVIP(&service.VIP{Addr: vip, Backends: permuted}))

	var remapShared, remapUnshared float64
	for n := 0; n < b.N; n++ {
		const flows = 5000
		var badShared, badUnshared int
		for i := uint32(0); i < flows; i++ {
			tuple := benchTuple(i, vip)
			h, err := hm.Lookup(tuple)
			if err != nil {
				b.Fatal(err)
			}
			s1, _ := shared.Lookup(tuple)
			s2, _ := unshared.Lookup(tuple)
			if s1 != h {
				badShared++
			}
			if s2 != h {
				badUnshared++
			}
		}
		remapShared = 100 * float64(badShared) / flows
		remapUnshared = 100 * float64(badUnshared) / flows
	}
	b.ReportMetric(remapShared, "%-remapped-shared-hash")
	b.ReportMetric(remapUnshared, "%-remapped-unshared-hash")
}

// BenchmarkAblationStickyDelta sweeps the sticky threshold δ.
func BenchmarkAblationStickyDelta(b *testing.B) {
	topo := benchTopo()
	w := benchWorkload(b, topo, 2)
	base, err := assign.Compute(netsim.New(topo), w, 0, assign.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, delta := range []float64{0.01, 0.05, 0.20} {
		b.Run(deltaName(delta), func(b *testing.B) {
			var shuf, frac float64
			for i := 0; i < b.N; i++ {
				opts := assign.DefaultOptions()
				opts.Delta = delta
				next, err := assign.ComputeSticky(netsim.New(topo), w, 1, base, opts)
				if err != nil {
					b.Fatal(err)
				}
				shuf = assign.ShuffledRate(base, next, w.Rates[1]) / w.TotalRate(1)
				frac = next.AssignedFraction()
			}
			b.ReportMetric(shuf*100, "%-shuffled")
			b.ReportMetric(frac*100, "%-on-hmux")
		})
	}
}

func deltaName(d float64) string {
	switch d {
	case 0.01:
		return "delta=0.01"
	case 0.05:
		return "delta=0.05"
	default:
		return "delta=0.20"
	}
}

// BenchmarkAblationCandidateReduction compares the §4.2 reduced candidate
// scan against evaluating every switch.
func BenchmarkAblationCandidateReduction(b *testing.B) {
	topo := benchTopo()
	w := benchWorkload(b, topo, 1)
	for _, full := range []bool{false, true} {
		name := "reduced-scan"
		if full {
			name = "full-scan"
		}
		b.Run(name, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				opts := assign.DefaultOptions()
				opts.FullScan = full
				asg, err := assign.Compute(netsim.New(topo), w, 0, opts)
				if err != nil {
					b.Fatal(err)
				}
				frac = asg.AssignedFraction()
			}
			b.ReportMetric(frac*100, "%-on-hmux")
		})
	}
}

// BenchmarkDataplaneChain pushes a packet through HMux encap + host agent
// semantics back to back — the end-to-end per-packet cost of the hardware
// path implemented in software.
func BenchmarkDataplaneChain(b *testing.B) {
	hm := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	vip := packet.MustParseAddr("10.0.0.1")
	backends := []service.Backend{{Addr: packet.MustParseAddr("100.0.0.1"), Weight: 1}}
	mustB(b, hm.AddVIP(&service.VIP{Addr: vip, Backends: backends}))
	pkt := packet.BuildTCP(benchTuple(1, vip), packet.TCPSyn, make([]byte, 512))
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		res, err := hm.Process(pkt, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := packet.Decapsulate(res.Packet); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataplaneChainWithScraper is the same chain with full telemetry
// attached and the obs scrape pipeline ticking concurrently — the acceptance
// bar that observability stays off the hot path: still 0 allocs/op.
func BenchmarkDataplaneChainWithScraper(b *testing.B) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(4096)
	rec.SetSampleEvery(64)
	hm := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	hm.SetTelemetry(reg, rec, 1)
	vip := packet.MustParseAddr("10.0.0.1")
	backends := []service.Backend{{Addr: packet.MustParseAddr("100.0.0.1"), Weight: 1}}
	mustB(b, hm.AddVIP(&service.VIP{Addr: vip, Backends: backends}))

	p := obs.New(obs.Config{Registry: reg, Recorder: rec, Windows: 64})
	p.AddRules(obs.DefaultRules(obs.DefaultSLO())...)
	for i := 0; i < 3; i++ { // warm the series cache and histogram buffers
		p.Tick()
	}
	stop := p.Start(time.Millisecond)
	defer stop()

	pkt := packet.BuildTCP(benchTuple(1, vip), packet.TCPSyn, make([]byte, 512))
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		res, err := hm.Process(pkt, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := packet.Decapsulate(res.Packet); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliverParallel measures the concurrent read path: a byte-accurate
// cluster flooded through core.DeliverBatch at 1, 4, and 8 workers. Every
// lookup table on this path is an epoch-published immutable snapshot, so the
// only shared-write state a packet touches is its SMux connection-table shard;
// scaling to 4 workers should be near-linear. The recorded gate for this path
// is ops_per_s on bench/'s hw-steady workload.
func BenchmarkDeliverParallel(b *testing.B) {
	f, err := testbed.NewFlood(testbed.FloodConfig{NumVIPs: 16})
	if err != nil {
		b.Fatal(err)
	}
	pkts := f.Packets(8192)
	f.Run(pkts, 1) // warm connection tables
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := f.Run(pkts, workers)
				if st.Failed != 0 {
					b.Fatalf("%d deliveries failed", st.Failed)
				}
			}
			perPkt := b.Elapsed().Seconds() / float64(b.N*len(pkts))
			b.ReportMetric(perPkt*1e9, "ns/pkt")
			b.ReportMetric(1/perPkt/1e6, "Mpps")
		})
	}
}

// BenchmarkDeliverParallelNMux is BenchmarkDeliverParallel with the NIC
// match-table tier enabled: half the VIPs on HMuxes, a quarter on the NMuxes,
// the rest on the SMux backstop. The NMux hot path is the same shape as the
// SMux one (epoch-snapshot wildcard lookup + sharded flow table), so per-packet
// cost should stay within noise of the two-tier run. The recorded gate for
// this path is ops_per_s on bench/'s sw-churn workload.
func BenchmarkDeliverParallelNMux(b *testing.B) {
	f, err := testbed.NewFlood(testbed.FloodConfig{
		NumVIPs:       16,
		HMuxFraction:  0.5,
		NMuxTableSize: 4096,
		NMuxFraction:  0.25,
	})
	if err != nil {
		b.Fatal(err)
	}
	pkts := f.Packets(8192)
	f.Run(pkts, 1) // warm connection and flow tables
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := f.Run(pkts, workers)
				if st.Failed != 0 {
					b.Fatalf("%d deliveries failed", st.Failed)
				}
			}
			perPkt := b.Elapsed().Seconds() / float64(b.N*len(pkts))
			b.ReportMetric(perPkt*1e9, "ns/pkt")
			b.ReportMetric(1/perPkt/1e6, "Mpps")
		})
	}
	reg, _ := f.Cluster.Telemetry()
	if reg.Counter("core.deliver.tier.nmux").Value() == 0 {
		b.Fatal("NMux tier served no packets — benchmark is not exercising the NIC path")
	}
}

// BenchmarkSteerChurn measures the per-packet cost of each steer mode under
// continuous DIP churn: every iteration flips one backend of an SMux-served
// VIP (remove on even iterations, restore on odd — two steer epochs per
// pair) and then floods 8192 packets through core.DeliverBatch. All VIPs
// stay on the software tier so every packet exercises the mode's resolution
// path: conn-table pinning (mode=0), pure table lookup (mode=1), or lookup
// plus overlay consultation during the drain window (mode=2). The recorded
// gate is bench/'s sw-churn workload (smux.stateful_ns/stateless_ns/hybrid_ns).
func BenchmarkSteerChurn(b *testing.B) {
	for _, mode := range steer.Modes() {
		b.Run(fmt.Sprintf("mode=%d", int(mode)), func(b *testing.B) {
			f, err := testbed.NewFlood(testbed.FloodConfig{
				NumVIPs:      16,
				HMuxFraction: -1, // everything on the SMux tier
				SMuxMode:     mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			churnVIP := f.VIPs[0]
			cfg, ok := f.Cluster.VIP(churnVIP)
			if !ok {
				b.Fatal("churn VIP not configured")
			}
			full := append([]service.Backend(nil), cfg.Backends...)
			victim := full[0].Addr
			pkts := f.Packets(8192)
			f.Run(pkts, 1) // warm connection tables and route caches
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sm := range f.Cluster.SMuxes {
					if i%2 == 0 {
						mustB(b, sm.RemoveBackend(churnVIP, victim))
					} else {
						mustB(b, sm.UpdateVIP(&service.VIP{Addr: churnVIP, Backends: full}))
					}
				}
				st := f.Run(pkts, 4)
				if st.Failed != 0 {
					b.Fatalf("%d deliveries failed", st.Failed)
				}
			}
			perPkt := b.Elapsed().Seconds() / float64(b.N*len(pkts))
			b.ReportMetric(perPkt*1e9, "ns/pkt")
			b.ReportMetric(1/perPkt/1e6, "Mpps")
		})
	}
}

func benchVIP(i int) *service.VIP {
	return &service.VIP{
		Addr: packet.AddrFrom4(10, 0, 0, byte(i+1)),
		Backends: []service.Backend{
			{Addr: packet.AddrFrom4(100, 0, byte(i), 1), Weight: 1},
			{Addr: packet.AddrFrom4(100, 0, byte(i), 2), Weight: 1},
		},
	}
}

func benchTuple(i uint32, vip packet.Addr) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.AddrFrom4(30, byte(i>>16), byte(i>>8), byte(i)), Dst: vip,
		SrcPort: uint16(1024 + i%50000), DstPort: 80, Proto: packet.ProtoTCP,
	}
}

func mustB(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationReplication compares the two failover designs from §9:
// SMux backstop (Duet's choice) vs replicating the VIP on two HMuxes.
// Metrics: where traffic lands after a switch failure and how many flows
// remap (zero for both, thanks to the shared hash — replication's win is
// keeping traffic in hardware at the cost of 2× table state).
func BenchmarkAblationReplication(b *testing.B) {
	mk := func() (*core.Cluster, *service.VIP) {
		c, err := core.New(core.Config{
			Topology:  topology.TestbedConfig(),
			NumSMuxes: 3,
			Aggregate: packet.MustParsePrefix("10.0.0.0/8"),
		})
		if err != nil {
			b.Fatal(err)
		}
		v := &service.VIP{Addr: packet.MustParseAddr("10.0.0.1"), Backends: []service.Backend{
			{Addr: packet.MustParseAddr("100.0.0.1"), Weight: 1},
			{Addr: packet.MustParseAddr("100.0.0.2"), Weight: 1},
		}}
		mustB(b, c.AddVIP(v))
		return c, v
	}
	const flows = 2000
	var backstopInHW, replicaInHW float64
	for i := 0; i < b.N; i++ {
		// Design A: single home + SMux backstop.
		c, v := mk()
		sw := c.Topo.AggID(0, 0)
		mustB(b, c.AssignToHMux(v.Addr, sw))
		c.FailSwitch(sw)
		hw := 0
		for f := uint32(0); f < flows; f++ {
			d, err := c.Deliver(packet.BuildTCP(benchTuple(f, v.Addr), packet.TCPSyn, nil))
			if err != nil {
				b.Fatal(err)
			}
			if d.Hops()[0].Kind == "hmux" {
				hw++
			}
		}
		backstopInHW = 100 * float64(hw) / flows

		// Design B: two replicas.
		c, v = mk()
		reps := []topology.SwitchID{c.Topo.AggID(0, 0), c.Topo.AggID(1, 0)}
		mustB(b, c.AssignReplicated(v.Addr, reps))
		c.FailSwitch(reps[0])
		hw = 0
		for f := uint32(0); f < flows; f++ {
			d, err := c.Deliver(packet.BuildTCP(benchTuple(f, v.Addr), packet.TCPSyn, nil))
			if err != nil {
				b.Fatal(err)
			}
			if d.Hops()[0].Kind == "hmux" {
				hw++
			}
		}
		replicaInHW = 100 * float64(hw) / flows
	}
	b.ReportMetric(backstopInHW, "%-in-hw-after-fail-backstop")
	b.ReportMetric(replicaInHW, "%-in-hw-after-fail-replicated")
}

// BenchmarkAblationBinPacking compares the paper's min-MRU greedy against
// the §9 best-fit (L2) packing direction: coverage and load spread.
func BenchmarkAblationBinPacking(b *testing.B) {
	topo := benchTopo()
	w := benchWorkload(b, topo, 1)
	for _, strat := range []struct {
		name string
		s    assign.Strategy
	}{{"greedy-mru", assign.Greedy}, {"bestfit-l2", assign.BestFit}} {
		b.Run(strat.name, func(b *testing.B) {
			var frac, mru float64
			for i := 0; i < b.N; i++ {
				opts := assign.DefaultOptions()
				opts.Strategy = strat.s
				asg, err := assign.Compute(netsim.New(topo), w, 0, opts)
				if err != nil {
					b.Fatal(err)
				}
				frac, mru = asg.AssignedFraction(), asg.MRU
			}
			b.ReportMetric(frac*100, "%-on-hmux")
			b.ReportMetric(mru, "final-MRU")
		})
	}
}
