package main

import (
	"fmt"
	"math/rand"

	"duet/internal/assign"
	"duet/internal/latmodel"
	"duet/internal/metrics"
	"duet/internal/netsim"
	"duet/internal/provision"
	"duet/internal/topology"
	"duet/internal/workload"
)

// simTopo returns the large-scale simulation fabric: 0.4× the paper's
// bisection by default, or the full production fabric with -full.
func simTopo(f *simFlags) *topology.Topology {
	if f.fabric != nil {
		return topology.MustNew(*f.fabric)
	}
	if f.full {
		return topology.MustNew(topology.ProductionConfig())
	}
	return topology.MustNew(topology.Config{
		Containers:       16,
		ToRsPerContainer: 40,
		AggsPerContainer: 4,
		Cores:            32,
		ServersPerToR:    32,
	})
}

// paperRate converts a paper-quoted offered load to the simulated load.
func paperRate(f *simFlags, tbps float64) float64 {
	if f.full {
		return tbps * 1e12
	}
	return tbps * 1e12 * f.scale
}

func simWorkload(f *simFlags, topo *topology.Topology, totalRate float64, epochs int) *workload.Workload {
	return simWorkloadChurn(f, topo, totalRate, epochs, 0.25)
}

func simWorkloadChurn(f *simFlags, topo *topology.Topology, totalRate float64, epochs int, churn float64) *workload.Workload {
	return workload.MustGenerate(workload.Config{
		NumVIPs:      f.vips,
		TotalRate:    totalRate,
		Epochs:       epochs,
		Seed:         f.seed,
		TrafficSkew:  1.6,
		MaxDIPs:      1500,
		InternetFrac: 0.3,
		ChurnStdDev:  churn,
	}, topo)
}

// fig15 prints the workload's cumulative-share distributions.
func fig15(f *simFlags) {
	topo := simTopo(f)
	w := simWorkload(f, topo, paperRate(f, 10), 1)
	bytesPts := workload.CumulativeShare(w.ByteShares(0))
	pktPts := workload.CumulativeShare(w.PacketShares(0))
	dipPts := workload.CumulativeShare(w.DIPShares())

	at := func(pts []workload.DistributionPoint, frac float64) float64 {
		for _, p := range pts {
			if p.VIPFrac >= frac {
				return p.CumFrac
			}
		}
		return 1
	}
	tw := tabw()
	fmt.Fprintf(tw, "top VIP fraction\tbytes\tpackets\tDIPs\n")
	for _, frac := range []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.00} {
		fmt.Fprintf(tw, "%.0f%%\t%.3f\t%.3f\t%.3f\n", frac*100,
			at(bytesPts, frac), at(pktPts, frac), at(dipPts, frac))
	}
	tw.Flush()
	fmt.Printf("VIPs: %d, total DIPs: %d, total rate: %s\n",
		len(w.VIPs), w.TotalDIPs(), metrics.FmtRate(w.TotalRate(0)))
	fmt.Println("paper: traffic is highly skewed — a small fraction of elephant VIPs")
	fmt.Println("       carries almost all bytes; DIP counts are equally heavy-tailed (Fig 15).")
}

// fig16 compares SMux fleet sizes across offered loads.
func fig16(f *simFlags) {
	topo := simTopo(f)
	fm := provision.DefaultFailureModel()
	tw := tabw()
	fmt.Fprintf(tw, "traffic (paper)\tsimulated\tHMux frac\tAnanta\tAnanta(10G)\tDuet\tDuet(10G)\treduction\treduction(10G)\n")
	for _, tbps := range []float64{1.25, 2.5, 5, 10} {
		rate := paperRate(f, tbps)
		net := netsim.New(topo)
		w := simWorkload(f, topo, rate, 1)
		asg, err := assign.Compute(net, w, 0, assignOpts(f))
		must(err)
		an36 := provision.Ananta(asg.TotalRate, provision.ProductionSMux())
		an10 := provision.Ananta(asg.TotalRate, provision.TenGigSMux())
		du36 := provision.Duet(asg, w, 0, topo, provision.ProductionSMux(), fm, 0)
		du10 := provision.Duet(asg, w, 0, topo, provision.TenGigSMux(), fm, 0)
		fmt.Fprintf(tw, "%.2fT\t%s\t%.1f%%\t%d\t%d\t%d\t%d\t%.1fx\t%.1fx\n",
			tbps, metrics.FmtRate(rate), 100*asg.AssignedFraction(),
			an36, an10, du36.Total, du10.Total,
			float64(an36)/float64(du36.Total), float64(an10)/float64(du10.Total))
	}
	tw.Flush()
	fmt.Println("paper: Duet needs 12-24x fewer SMuxes than Ananta (3.6G SMuxes)")
	fmt.Println("       and 8-12x fewer with 10G SMuxes; most of Duet's SMuxes exist")
	fmt.Println("       for failure cover, not steady-state traffic (Fig 16).")
}

// fig17 prints the latency-vs-fleet-size trade-off.
func fig17(f *simFlags) {
	topo := simTopo(f)
	rate := paperRate(f, 10)
	net := netsim.New(topo)
	w := simWorkload(f, topo, rate, 1)
	asg, err := assign.Compute(net, w, 0, assignOpts(f))
	must(err)
	sm := latmodel.DefaultSMuxModel()
	hm := latmodel.DefaultHMuxModel()
	duetFleet := provision.Duet(asg, w, 0, topo, provision.ProductionSMux(), provision.DefaultFailureModel(), 0)

	// Mean packet size of the workload.
	var pkts, bits float64
	for i := range w.VIPs {
		bits += w.Rates[0][i]
		pkts += w.Rates[0][i] / (8 * w.VIPs[i].PacketSize)
	}
	meanPkt := bits / (8 * pkts)

	// Scale the paper's sweep to the simulated traffic volume.
	ratio := asg.TotalRate / 10e12
	tw := tabw()
	fmt.Fprintf(tw, "SMuxes (paper-equivalent)\tAnanta median added latency\n")
	for _, n := range []int{2000, 3000, 5000, 8000, 10000, 15000} {
		scaled := int(float64(n) * ratio)
		if scaled < 1 {
			scaled = 1
		}
		lat := provision.LatencyVsSMuxes(asg.TotalRate, meanPkt, scaled, sm)
		fmt.Fprintf(tw, "%d\t%s\n", n, metrics.FmtDuration(lat))
	}
	tw.Flush()
	duetLat := provision.DuetMedianLatency(asg, duetFleet.Total, meanPkt, sm, hm)
	anantaSame := provision.LatencyVsSMuxes(asg.TotalRate, meanPkt, duetFleet.Total, sm)
	fmt.Printf("Duet point: %d SMuxes (paper-equivalent %d), median added latency %s\n",
		duetFleet.Total, int(float64(duetFleet.Total)/ratio+0.5), metrics.FmtDuration(duetLat))
	fmt.Printf("Ananta at Duet's fleet size: %s\n", metrics.FmtDuration(anantaSame))
	fmt.Println("paper: Duet with 230 SMuxes reaches 474µs median RTT; Ananta at the")
	fmt.Println("       same fleet is >6ms and needs ~15,000 SMuxes to match (Fig 17).")
}

// fig18 compares greedy MRU placement with the Random/FFD baseline.
func fig18(f *simFlags) {
	topo := simTopo(f)
	tw := tabw()
	fmt.Fprintf(tw, "traffic (paper)\tDuet SMuxes\tRandom SMuxes\tRandom/Duet\tDuet leftover\tRandom leftover\n")
	for _, tbps := range []float64{1.25, 2.5, 5, 10} {
		rate := paperRate(f, tbps)
		w := simWorkload(f, topo, rate, 1)

		g, err := assign.Compute(netsim.New(topo), w, 0, assignOpts(f))
		must(err)
		ro := assignOpts(f)
		ro.Strategy = assign.Random
		r, err := assign.Compute(netsim.New(topo), w, 0, ro)
		must(err)

		fm := provision.DefaultFailureModel()
		gd := provision.Duet(g, w, 0, topo, provision.ProductionSMux(), fm, 0)
		rd := provision.Duet(r, w, 0, topo, provision.ProductionSMux(), fm, 0)
		fmt.Fprintf(tw, "%.2fT\t%d\t%d\t%.2fx\t%s\t%s\n", tbps, gd.Total, rd.Total,
			float64(rd.Total)/float64(gd.Total),
			metrics.FmtRate(g.UnassignedRate()), metrics.FmtRate(r.UnassignedRate()))
	}
	tw.Flush()
	fmt.Println("paper: Random needs 120-307% more SMuxes because it ignores resource")
	fmt.Println("       utilization when placing VIPs (Fig 18).")
}

// fig19 measures max link utilization under the failure scenarios.
func fig19(f *simFlags) {
	topo := simTopo(f)
	rate := paperRate(f, 10)
	w := simWorkload(f, topo, rate, 1)
	net := netsim.New(topo)
	asg, err := assign.Compute(net, w, 0, assignOpts(f))
	must(err)
	smuxRacks := assign.SMuxRacks(topo, 32)
	rng := rand.New(rand.NewSource(f.seed))

	maxUtil := func() float64 {
		loads, err := assign.FullLoads(net, w, 0, asg, smuxRacks)
		must(err)
		u, _ := net.MaxUtilization(loads)
		return u
	}

	normal := maxUtil()
	var swFail, contFail []float64
	for trial := 0; trial < f.trials; trial++ {
		net.ClearFailures()
		for k := 0; k < 3; k++ {
			net.FailSwitch(topology.SwitchID(rng.Intn(topo.NumSwitches())))
		}
		swFail = append(swFail, maxUtil())

		net.ClearFailures()
		net.FailContainer(rng.Intn(topo.Cfg.Containers))
		contFail = append(contFail, maxUtil())
	}
	net.ClearFailures()

	tw := tabw()
	fmt.Fprintf(tw, "scenario\tmax link utilization (mean)\tworst trial\n")
	fmt.Fprintf(tw, "Normal\t%.3f\t%.3f\n", normal, normal)
	fmt.Fprintf(tw, "3 random switch failures\t%.3f\t%.3f\n", metrics.Mean(swFail), metrics.Quantile(swFail, 1))
	fmt.Fprintf(tw, "Container failure\t%.3f\t%.3f\n", metrics.Mean(contFail), metrics.Quantile(contFail, 1))
	tw.Flush()
	fmt.Printf("utilization increase vs normal: switches +%.1f%%, container %+.1f%%\n",
		100*(metrics.Mean(swFail)-normal), 100*(metrics.Mean(contFail)-normal))
	fmt.Println("paper: failures raise utilization by no more than ~16%, absorbed by")
	fmt.Println("       the 20% headroom reserved at assignment time; container failure")
	fmt.Println("       is often milder than 3 switches (its traffic disappears) (Fig 19).")
}

func assignOpts(f *simFlags) assign.Options {
	o := assign.DefaultOptions()
	o.Seed = f.seed
	o.Delta = f.delta
	// The harness runs as the controller does in steady state: an
	// unplaceable VIP is skipped (it stays on the SMuxes) rather than
	// aborting the whole round, which would dump every smaller VIP too.
	o.ContinueOnFail = true
	return o
}

// runTrace runs the three migration strategies over the trace and returns
// per-epoch metrics for the figure 20 family.
type traceResult struct {
	fracOneTime, fracSticky, fracNonSticky []float64
	shufSticky, shufNonSticky              []float64 // fraction of total traffic
	smuxSticky, smuxNonSticky, smuxNoMig   []int
	ananta                                 []int
}

// traceCache lets figures 20a/b/c share one trace computation per flag set.
var traceCache = map[string]traceResult{}

func runTrace(f *simFlags) traceResult {
	key := fmt.Sprintf("%d/%d/%d/%g/%v/%g", f.seed, f.vips, f.epochs, f.scale, f.full, f.delta)
	if r, ok := traceCache[key]; ok {
		return r
	}
	r := runTraceUncached(f)
	traceCache[key] = r
	return r
}

func runTraceUncached(f *simFlags) traceResult {
	topo := simTopo(f)
	rate := paperRate(f, 7) // paper trace runs 6.2–7.1 Tbps
	// Production per-VIP traffic is volatile; the stronger per-epoch drift
	// is what ages the One-time placement (Figure 20a's decay).
	w := simWorkloadChurn(f, topo, rate, f.epochs, 0.6)
	spec := provision.ProductionSMux()
	fm := provision.DefaultFailureModel()

	var res traceResult
	var prevS, prevN, oneTime *assign.Assignment
	for e := 0; e < w.NumEpochs(); e++ {
		net := netsim.New(topo)
		sticky, err := assign.ComputeSticky(net, w, e, prevS, assignOpts(f))
		must(err)
		nonsticky, err := assign.Compute(netsim.New(topo), w, e, assignOpts(f))
		must(err)
		if e == 0 {
			oneTime = sticky
		}

		total := w.TotalRate(e)
		// One-time: the epoch-0 placement re-validated against epoch-e
		// traffic — VIPs whose stale placement no longer fits overflow to
		// the SMuxes.
		oneEval, err := assign.Revalidate(netsim.New(topo), w, e, oneTime.SwitchOf, assignOpts(f))
		must(err)
		res.fracOneTime = append(res.fracOneTime, oneEval.AssignedFraction())
		res.fracSticky = append(res.fracSticky, sticky.AssignedFraction())
		res.fracNonSticky = append(res.fracNonSticky, nonsticky.AssignedFraction())

		shS := assign.ShuffledRate(prevS, sticky, w.Rates[e])
		shN := assign.ShuffledRate(prevN, nonsticky, w.Rates[e])
		res.shufSticky = append(res.shufSticky, shS/total)
		res.shufNonSticky = append(res.shufNonSticky, shN/total)

		res.smuxSticky = append(res.smuxSticky,
			provision.Duet(sticky, w, e, topo, spec, fm, shS).Total)
		res.smuxNonSticky = append(res.smuxNonSticky,
			provision.Duet(nonsticky, w, e, topo, spec, fm, shN).Total)
		res.smuxNoMig = append(res.smuxNoMig,
			provision.Duet(oneTime, w, e, topo, spec, fm, 0).Total)
		res.ananta = append(res.ananta, provision.Ananta(total, spec))

		prevS, prevN = sticky, nonsticky
	}
	return res
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func fig20a(f *simFlags) {
	res := runTrace(f)
	tw := tabw()
	fmt.Fprintf(tw, "epoch\tOne-time\tSticky\tNon-sticky\n")
	for e := range res.fracSticky {
		fmt.Fprintf(tw, "%d\t%.1f%%\t%.1f%%\t%.1f%%\n", e,
			100*res.fracOneTime[e], 100*res.fracSticky[e], 100*res.fracNonSticky[e])
	}
	fmt.Fprintf(tw, "average\t%.1f%%\t%.1f%%\t%.1f%%\n",
		100*avg(res.fracOneTime), 100*avg(res.fracSticky), 100*avg(res.fracNonSticky))
	tw.Flush()
	fmt.Printf("sticky timeline:     %s\n", metrics.Sparkline(res.fracSticky))
	fmt.Printf("one-time timeline:   %s\n", metrics.Sparkline(res.fracOneTime))
	fmt.Println("paper: One-time decays to 60-89% (avg 75.2%) as traffic drifts;")
	fmt.Println("       Sticky and Non-sticky track 86-99.9% (avg ~95%) (Fig 20a).")
}

func fig20b(f *simFlags) {
	res := runTrace(f)
	tw := tabw()
	fmt.Fprintf(tw, "epoch\tSticky shuffled\tNon-sticky shuffled\n")
	for e := 1; e < len(res.shufSticky); e++ {
		fmt.Fprintf(tw, "%d\t%.1f%%\t%.1f%%\n", e,
			100*res.shufSticky[e], 100*res.shufNonSticky[e])
	}
	fmt.Fprintf(tw, "average\t%.1f%%\t%.1f%%\n",
		100*avg(res.shufSticky[1:]), 100*avg(res.shufNonSticky[1:]))
	tw.Flush()
	fmt.Println("paper: Non-sticky reshuffles 25-46% (avg 37.4%) of all VIP traffic")
	fmt.Println("       every window; Sticky only 0.7-4.4% (avg 3.5%) (Fig 20b).")
}

func fig20c(f *simFlags) {
	res := runTrace(f)
	tw := tabw()
	fmt.Fprintf(tw, "strategy\tSMuxes (max over trace)\n")
	fmt.Fprintf(tw, "No-migration\t%d\n", maxInt(res.smuxNoMig))
	fmt.Fprintf(tw, "Sticky\t%d\n", maxInt(res.smuxSticky))
	fmt.Fprintf(tw, "Non-sticky\t%d\n", maxInt(res.smuxNonSticky))
	fmt.Fprintf(tw, "Ananta\t%d\n", maxInt(res.ananta))
	tw.Flush()
	fmt.Println("paper: Non-sticky always needs more SMuxes than Sticky (its transit")
	fmt.Println("       traffic must be absorbed); Sticky adds none over No-migration;")
	fmt.Println("       all are far below Ananta (Fig 20c).")
}
