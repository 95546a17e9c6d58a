// Command duetsim regenerates every table and figure of the Duet paper's
// evaluation (SIGCOMM 2014) from this repository's implementation, and runs
// the model sweeps that go beyond it.
//
// Usage:
//
//	duetsim -fig 16            # one figure
//	duetsim -fig all           # everything (about 12 minutes)
//	duetsim -fig 20a -epochs 6 # shorter trace
//	duetsim -fig sweep-delta   # one model sweep
//	duetsim -fig ablation-sharedhash
//
// Figures: 1a 1b 11 12 13 14 15 16 17 18 19 20a 20b 20c obs nmux, the
// model sweeps beyond the paper: sweep-smux sweep-tables sweep-headroom
// sweep-delta, and the ablations of DESIGN.md's design choices:
// ablation-sharedhash ablation-candidates ablation-replication
// ablation-binpacking
//
// The large-scale simulations run on a fabric whose bisection bandwidth is
// 0.4× the paper's production DC (16 containers × 40 ToRs vs 40 × 40), so
// offered loads are scaled to keep fabric utilization in the paper's
// operating regime (default factor 0.25): "paper 10 Tbps" rows simulate
// 2.5 Tbps. Shapes, ratios and crossovers are preserved; see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"duet/internal/topology"
)

type simFlags struct {
	seed    int64
	vips    int
	epochs  int
	scale   float64 // traffic scale factor vs the paper's rates
	full    bool    // use the paper's full 40-container fabric (slow)
	trials  int
	delta   float64
	verbose bool

	// fabric, when set, replaces the fabric -full selects. No flag sets it:
	// the smoke test runs every figure on a few dozen switches.
	fabric *topology.Config
}

var figures = map[string]struct {
	run  func(f *simFlags)
	desc string
}{
	"1a":   {fig1a, "SMux RTT CDF at 0..450K pps (latency model calibration)"},
	"1b":   {fig1b, "SMux CPU utilization vs offered packet rate"},
	"11":   {fig11, "HMux capacity: latency timeline 600K→1.2M pps→HMux"},
	"12":   {fig12, "VIP availability during HMux failure (SMux backstop)"},
	"13":   {fig13, "VIP availability during VIP migration (no loss)"},
	"14":   {fig14, "migration delay breakdown (FIB ops dominate)"},
	"15":   {fig15, "trace characteristics: traffic and DIP distribution"},
	"16":   {fig16, "number of SMuxes: Duet vs Ananta across traffic loads"},
	"17":   {fig17, "latency vs number of SMuxes: Ananta curve vs Duet point"},
	"18":   {fig18, "number of SMuxes: Duet (greedy MRU) vs Random/FFD"},
	"19":   {fig19, "max link utilization under switch/container failures"},
	"20a":  {fig20a, "% traffic on HMux: One-time vs Sticky vs Non-sticky"},
	"20b":  {fig20b, "% traffic shuffled during migration: Sticky vs Non-sticky"},
	"20c":  {fig20c, "number of SMuxes: No-migration/Sticky/Non-sticky/Ananta"},
	"obs":  {figObs, "observability plane: watchdogs through failover + overload"},
	"nmux": {figNMux, "three-tier placement: SMux share vs NIC match-table capacity"},

	"sweep-smux":     {sweepSMux, "SMux capacity sweep: when does software-only become competitive?"},
	"sweep-tables":   {sweepTables, "switch memory sweep: how much tunneling table does Duet need?"},
	"sweep-headroom": {sweepHeadroom, "link headroom sweep: the §4 safety margin vs HMux coverage"},
	"sweep-delta":    {sweepDelta, "sticky threshold δ sweep (paper uses 0.05)"},

	"ablation-sharedhash":  {ablationSharedHash, "no shared hash: flows remapped when an HMux fails over to the SMuxes"},
	"ablation-candidates":  {ablationCandidates, "no §4.2 candidate reduction: the greedy scan over every switch"},
	"ablation-replication": {ablationReplication, "§9 HMux replication instead of the SMux backstop"},
	"ablation-binpacking":  {ablationBinPacking, "§9 best-fit packing instead of greedy min-MRU"},
}

var figOrder = []string{"1a", "1b", "11", "12", "13", "14", "15", "16", "17", "18", "19", "20a", "20b", "20c", "obs", "nmux",
	"sweep-smux", "sweep-tables", "sweep-headroom", "sweep-delta",
	"ablation-sharedhash", "ablation-candidates", "ablation-replication", "ablation-binpacking"}

func main() {
	f := &simFlags{}
	fig := flag.String("fig", "", "figure to regenerate ("+strings.Join(figOrder, " ")+", or 'all')")
	flag.Int64Var(&f.seed, "seed", 1, "random seed (all experiments are deterministic per seed)")
	flag.IntVar(&f.vips, "vips", 2000, "number of VIPs in the simulated workload")
	flag.IntVar(&f.epochs, "epochs", 18, "trace epochs for figure 20 (paper: 18 = 3 hours)")
	flag.Float64Var(&f.scale, "scale", 0.25, "traffic scale vs paper rates (matches the scaled fabric)")
	flag.BoolVar(&f.full, "full", false, "use the paper's full 40-container fabric (much slower)")
	flag.IntVar(&f.trials, "trials", 10, "failure trials for figure 19")
	flag.Float64Var(&f.delta, "delta", 0.05, "sticky migration threshold δ")
	flag.BoolVar(&f.verbose, "v", false, "verbose output")
	flag.Parse()

	if *fig == "" {
		fmt.Fprintln(os.Stderr, "usage: duetsim -fig <id>|all")
		for _, id := range figOrder {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", id, figures[id].desc)
		}
		os.Exit(2)
	}
	for _, id := range figIDs(*fig) {
		if !runFigure(id, f) {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", id)
			os.Exit(2)
		}
	}
}

// figIDs expands the -fig argument: one id, or every figure in order.
func figIDs(fig string) []string {
	if strings.EqualFold(fig, "all") {
		return figOrder
	}
	return []string{fig}
}

// runFigure prints one figure under its banner; false if id is not registered.
func runFigure(id string, f *simFlags) bool {
	fg, ok := figures[id]
	if !ok {
		return false
	}
	fmt.Printf("──────────────────────────────────────────────────────────\n")
	fmt.Printf("Figure %s — %s\n", id, fg.desc)
	fmt.Printf("──────────────────────────────────────────────────────────\n")
	fg.run(f)
	fmt.Println()
	return true
}
