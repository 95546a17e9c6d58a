package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// metricDef names one metric of the contract in BENCHMARK.json. on is the set
// of workloads that measure a per-layer metric: the ones whose black box
// works that layer. The driver wants every per-layer metric from every
// workload, so a traced run reports 0 for a metric it is not listed for
// rather than probing a layer the workload never calls.
type metricDef struct {
	name, unit string
	on         uint8
}

const (
	onHW uint8 = 1 << iota
	onSW
	onWire
	onCtl
	onInproc = onHW | onSW
	onAll    = onHW | onSW | onWire | onCtl
)

var workloadBit = map[string]uint8{"hw-steady": onHW, "sw-churn": onSW, "wire-fleet": onWire, "ctl-churn": onCtl}

// endToEndMetrics is what every workload reports on an untraced run. The
// names are generic because every workload must report every one of them;
// README.md says what each means on each workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", onAll},
	{"ops_per_s", "1/s", onAll},
	{"cpu_us_per_op", "us", onAll},
	{"allocs_per_op", "count", onAll},
	{"alloc_bytes_per_op", "B", onAll},
	{"latency_p50_us", "us", onAll},
	{"peak_rss_mb", "MB", onAll},
}

// perLayerMetrics is what a traced run reports. The wire layer's metrics
// split between its two workloads: the dataplane's (framing, sockets, drops)
// on wire-fleet, whose control plane is quiet, and the control channel's on
// ctl-churn, which sends no dataplane traffic.
var perLayerMetrics = []metricDef{
	{"packet.extract_ns", "ns", onInproc}, {"packet.encap_ns", "ns", onInproc}, {"packet.decap_ns", "ns", onInproc},
	{"ecmp.hash_ns", "ns", onInproc},
	{"bgp.pick_ns", "ns", onInproc},
	{"hmux.process_ns", "ns", onHW | onCtl}, {"hmux.addvip_us", "us", onHW | onCtl},
	{"nmux.hit_ns", "ns", onSW}, {"nmux.miss_ns", "ns", onSW}, {"nmux.hit_frac", "ratio", onSW}, {"nmux.rejected_full", "count", onSW},
	{"smux.stateful_ns", "ns", onSW | onCtl}, {"smux.stateless_ns", "ns", onSW | onCtl}, {"smux.hybrid_ns", "ns", onSW | onCtl},
	{"smux.newflow_ns", "ns", onSW | onCtl}, {"smux.updatevip_us", "us", onSW | onCtl}, {"smux.conn_bytes_per_flow", "B", onSW | onCtl},
	{"steer.lookup_ns", "ns", onSW | onCtl}, {"steer.update_us", "us", onSW | onCtl},
	{"steer.epochs", "count", onSW | onCtl}, {"steer.drain_active_frac", "ratio", onSW | onCtl},
	{"hostagent.receive_ns", "ns", onInproc | onWire},
	{"core.deliver_ns", "ns", onInproc}, {"core.residual_ns", "ns", onInproc}, {"core.batch_overhead_ns", "ns", onInproc}, {"core.allocs_per_pkt", "count", onInproc},
	{"core.tier_hmux_frac", "ratio", onInproc}, {"core.tier_nmux_frac", "ratio", onInproc}, {"core.tier_smux_frac", "ratio", onInproc},
	{"wire.frame_ns", "ns", onWire}, {"wire.send_ns", "ns", onWire}, {"wire.recv_ns", "ns", onWire},
	{"wire.hops_per_pkt", "count", onWire}, {"wire.drops_backlog", "count", onWire}, {"wire.drops_total", "count", onWire},
	{"wire.control_rtt_us", "us", onCtl}, {"wire.calls_per_epoch", "count", onCtl}, {"wire.delta_pushes_per_epoch", "count", onCtl},
	{"wire.full_pushes", "count", onWire | onCtl}, {"wire.delta_rejected", "count", onWire | onCtl},
	{"delta.diff_us", "us", onCtl}, {"delta.encode_us", "us", onCtl}, {"delta.decode_us", "us", onCtl}, {"delta.apply_us", "us", onCtl}, {"delta.bytes_per_epoch", "B", onCtl},
	{"assign.delta_ns_per_vip", "ns", onCtl}, {"assign.compute_ns_per_vip", "ns", onCtl}, {"assign.moved_per_epoch", "count", onCtl}, {"assign.hmux_traffic_frac", "ratio", onCtl},
	{"controller.apply_ms", "ms", onCtl}, {"controller.full_epoch_ms", "ms", onCtl},
	{"obs.tick_us", "us", onHW},
	{"pcc_broken_frac", "ratio", onSW | onCtl}, {"failed_frac", "ratio", onAll},
	{"bench.ref_ms", "ms", onAll}, {"bench.trace_overhead_frac", "ratio", onAll},
}

// contract is the metric list of the report's mode.
func (r *report) contract() []metricDef {
	if r.Traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// wants reports whether this run measures the named contract metric.
func (r *report) wants(name string) bool {
	for _, d := range r.contract() {
		if d.name == name {
			return d.on&workloadBit[r.Workload] != 0
		}
	}
	return false
}

// conform completes the report's metrics to the contract's set for its mode:
// a metric this workload is not listed for reads 0, one it is listed for and
// did not measure is a violation (a probe did not run, or a metric was
// renamed on one side only).
func (r *report) conform() {
	for _, d := range r.contract() {
		v, ok := r.Metrics[d.name]
		switch {
		case ok && v.Unit != d.unit:
			r.violate("%s: metric %s is reported in %s, the contract says %s", r.Workload, d.name, v.Unit, d.unit)
		case !ok && !r.wants(d.name):
			r.Metrics[d.name] = metricValue{Unit: d.unit}
		case !ok:
			r.violate("%s: metric %s was not measured", r.Workload, d.name)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the runner reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runCompare is "-repeat N -compare": it runs the selected workloads N times
// (untraced) and prints, per metric × workload, the first and the last run's
// values, how far apart they are as a share of the first, and the bound from
// BENCHMARK.json in the current directory. Both runs are of the same code, so
// a difference in either direction is noise: it returns 1 when one exceeds
// its bound, or when a run fails an oracle.
func runCompare(names []string, seed int64, d time.Duration, repeat int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare needs BENCHMARK.json in the current directory:", err)
		return 2
	}
	if repeat < 2 {
		repeat = 2
	}
	runs := make([]map[string]*report, repeat)
	exit := 0
	for i := range runs {
		runs[i] = map[string]*report{}
		for _, name := range names {
			r, err := runOne(name, seed, d, false, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			if !r.Correct {
				fmt.Printf("%s run %d: oracle violations: %v\n", name, i+1, r.Violations)
				exit = 1
			}
			runs[i][name] = r
		}
	}
	fmt.Printf("%-11s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "last", "differ", "bound")
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			a, b := runs[0][name].Metrics[m.Name].Value, runs[repeat-1][name].Metrics[m.Name].Value
			differ := (b - a) / a
			verdict := ""
			if math.Abs(differ) > m.Bound {
				verdict, exit = "  EXCEEDS", 1
			}
			fmt.Printf("%-11s %-20s %14.6g %14.6g %+7.1f%% %6.0f%%%s\n", name, m.Name, a, b, differ*100, m.Bound*100, verdict)
		}
	}
	return exit
}
