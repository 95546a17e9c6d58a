// Command duetbench runs capacity/cost sweeps that go beyond the paper's
// figures: how the Duet-vs-Ananta trade-off moves with SMux capacity, switch
// table sizes, link headroom, and the sticky threshold δ — the ablation
// studies DESIGN.md calls out, in table form. These are model sweeps; the
// repository's measured throughput lives in bench/ (bash bench/run.sh).
//
// Usage:
//
//	duetbench -sweep smux      # SMux capacity sweep (cost crossover)
//	duetbench -sweep tables    # tunneling-table size sweep
//	duetbench -sweep headroom  # link headroom sweep
//	duetbench -sweep delta     # sticky threshold sweep
//	duetbench -sweep all
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"duet/internal/assign"
	"duet/internal/latmodel"
	"duet/internal/metrics"
	"duet/internal/netsim"
	"duet/internal/provision"
	"duet/internal/topology"
	"duet/internal/workload"
)

func main() {
	sweep := flag.String("sweep", "", "smux | tables | headroom | delta | all")
	seed := flag.Int64("seed", 1, "random seed")
	vips := flag.Int("vips", 1000, "number of VIPs")
	rate := flag.Float64("tbps", 1.75, "offered load in Tbps (scaled fabric)")
	flag.Parse()

	sweeps := map[string]func(int64, int, float64){
		"smux":     sweepSMux,
		"tables":   sweepTables,
		"headroom": sweepHeadroom,
		"delta":    sweepDelta,
	}
	order := []string{"smux", "tables", "headroom", "delta"}
	if *sweep == "" {
		fmt.Fprintln(os.Stderr, "usage: duetbench -sweep smux|tables|headroom|delta|all")
		os.Exit(2)
	}
	run := []string{*sweep}
	if *sweep == "all" {
		run = order
	}
	for _, s := range run {
		fn, ok := sweeps[s]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown sweep %q\n", s)
			os.Exit(2)
		}
		fn(*seed, *vips, *rate*1e12)
		fmt.Println()
	}
}

func world(seed int64, vips int, rate float64, epochs int) (*topology.Topology, *workload.Workload) {
	topo := topology.MustNew(topology.Config{
		Containers:       16,
		ToRsPerContainer: 40,
		AggsPerContainer: 4,
		Cores:            32,
		ServersPerToR:    32,
	})
	w := workload.MustGenerate(workload.Config{
		NumVIPs: vips, TotalRate: rate, Epochs: epochs, Seed: seed,
		TrafficSkew: 1.6, MaxDIPs: 1500, InternetFrac: 0.3, ChurnStdDev: 0.25,
	}, topo)
	return topo, w
}

func opts(seed int64) assign.Options {
	o := assign.DefaultOptions()
	o.Seed = seed
	o.ContinueOnFail = true
	return o
}

// sweepSMux varies per-SMux capacity and reports fleet sizes and cost.
func sweepSMux(seed int64, vips int, rate float64) {
	fmt.Println("== SMux capacity sweep: when does software-only become competitive? ==")
	topo, w := world(seed, vips, rate, 1)
	asg, err := assign.Compute(netsim.New(topo), w, 0, opts(seed))
	must(err)
	fm := provision.DefaultFailureModel()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "SMux capacity\tAnanta fleet\tAnanta cost\tDuet fleet\tDuet cost\tsavings\n")
	for _, gbps := range []float64{3.6, 10, 25, 40, 100} {
		spec := provision.SMuxSpec{CapacityBps: gbps * 1e9}
		an := provision.Ananta(asg.TotalRate, spec)
		du := provision.Duet(asg, w, 0, topo, spec, fm, 0)
		fmt.Fprintf(tw, "%.1fG\t%d\t$%.2fM\t%d\t$%.2fM\t%.1fx\n",
			gbps, an, latmodel.Cost(an)/1e6, du.Total, latmodel.Cost(du.Total)/1e6,
			float64(an)/float64(du.Total))
	}
	tw.Flush()
	fmt.Println("Duet's advantage persists even with hypothetical 100G software muxes:")
	fmt.Println("the backstop is sized by failures, not by total traffic.")
}

// sweepTables varies the tunneling-table capacity (the paper's 512).
func sweepTables(seed int64, vips int, rate float64) {
	fmt.Println("== switch memory sweep: how much tunneling table does Duet need? ==")
	topo, w := world(seed, vips, rate, 1)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "tunnel entries/switch\ttraffic on HMux\tVIPs assigned\tSMuxes needed\n")
	for _, mem := range []int{64, 128, 256, 512, 1024, 2048} {
		o := opts(seed)
		o.MemCapacity = mem
		asg, err := assign.Compute(netsim.New(topo), w, 0, o)
		must(err)
		du := provision.Duet(asg, w, 0, topo, provision.ProductionSMux(),
			provision.DefaultFailureModel(), 0)
		fmt.Fprintf(tw, "%d\t%.1f%%\t%d\t%d\n",
			mem, 100*asg.AssignedFraction(), asg.NumAssigned, du.Total)
	}
	tw.Flush()
	fmt.Println("small tables strand big-fanout VIPs on the SMuxes (they would need")
	fmt.Println("TIP indirection); the paper's 512 entries already capture most traffic.")
}

// sweepHeadroom varies the 20% link reservation of §4.
func sweepHeadroom(seed int64, vips int, rate float64) {
	fmt.Println("== link headroom sweep: the §4 safety margin vs HMux coverage ==")
	topo, w := world(seed, vips, rate, 1)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "headroom\ttraffic on HMux\tMRU\tmax util under container failure\n")
	for _, hr := range []float64{0.6, 0.7, 0.8, 0.9, 0.99} {
		o := opts(seed)
		o.LinkHeadroom = hr
		net := netsim.New(topo)
		asg, err := assign.Compute(net, w, 0, o)
		must(err)
		smuxRacks := assign.SMuxRacks(topo, 32)
		net.FailContainer(0)
		loads, err := assign.FullLoads(net, w, 0, asg, smuxRacks)
		must(err)
		failUtil, _ := net.MaxUtilization(loads)
		net.ClearFailures()
		fmt.Fprintf(tw, "%.0f%%\t%.1f%%\t%.3f\t%.3f\n",
			hr*100, 100*asg.AssignedFraction(), asg.MRU, failUtil)
	}
	tw.Flush()
	fmt.Println("tighter headroom assigns marginally more traffic but leaves failures")
	fmt.Println("nowhere to go; the paper's 80% absorbs its measured +16% failure surge.")
}

// sweepDelta varies the sticky threshold δ over a short trace.
func sweepDelta(seed int64, vips int, rate float64) {
	fmt.Println("== sticky threshold δ sweep (paper uses 0.05) ==")
	topo, w := world(seed, vips, rate, 6)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "δ\tavg traffic on HMux\tavg shuffled/epoch\n")
	for _, delta := range []float64{0.01, 0.02, 0.05, 0.10, 0.25} {
		o := opts(seed)
		o.Delta = delta
		var prev *assign.Assignment
		var fracSum, shufSum float64
		for e := 0; e < w.NumEpochs(); e++ {
			next, err := assign.ComputeSticky(netsim.New(topo), w, e, prev, o)
			must(err)
			fracSum += next.AssignedFraction()
			if prev != nil {
				shufSum += assign.ShuffledRate(prev, next, w.Rates[e]) / w.TotalRate(e)
			}
			prev = next
		}
		fmt.Fprintf(tw, "%.2f\t%.1f%%\t%.1f%%\n", delta,
			100*fracSum/float64(w.NumEpochs()),
			100*shufSum/float64(w.NumEpochs()-1))
	}
	tw.Flush()
	fmt.Printf("(offered load %s over %d epochs)\n", metrics.FmtRate(rate), w.NumEpochs())
	fmt.Println("small δ chases noise (more shuffling for no coverage gain); large δ")
	fmt.Println("tolerates drift until placements age. 0.05 sits at the knee.")
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "duetbench:", err)
		os.Exit(1)
	}
}
