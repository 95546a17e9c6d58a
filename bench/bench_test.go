package main

import (
	"sort"
	"testing"
	"time"
)

// TestWorkloadsToy runs every workload at toy scale, untraced and traced, and
// checks that each passes its oracles and reports exactly the contract's
// metrics. It keeps the runner compiling and honest as internals move.
func TestWorkloadsToy(t *testing.T) {
	if testing.Short() {
		t.Skip("starts loopback fleets")
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			spans.reset()
			r, err := runOne(name, 7, 300*time.Millisecond, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.Correct {
				t.Errorf("%s traced=%v: violations: %v", name, traced, r.Violations)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", name, traced, r.Attempted, r.Failed)
			}
			if traced && len(spans.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// TestLedgerAgainstProbes holds the Deliver ledger to two things it could get
// wrong: the residual is not negative (the replayed layers cannot cost more
// than the black box that contains them), and a rung every packet crosses
// agrees with the stand-alone probe of the same layer, which is timed apart
// from the ledger on its own spans. The tolerance is wide: toy runs are a few
// milliseconds on a shared machine, and the check is for a rung divided by
// the wrong count, not for noise.
func TestLedgerAgainstProbes(t *testing.T) {
	pairs := map[string]string{
		"ledger.extract_ns": "packet.extract_ns",
		"ledger.hash_ns":    "ecmp.hash_ns",
		"ledger.pick_ns":    "bgp.pick_ns",
		"ledger.receive_ns": "hostagent.receive_ns",
	}
	for _, name := range []string{"hw-steady", "sw-churn"} {
		r, err := runOne(name, 3, 200*time.Millisecond, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if res := r.Metrics["core.residual_ns"].Value; res < 0 || !r.Correct {
			t.Errorf("%s: core.residual_ns = %.1f, violations %v", name, res, r.Violations)
		}
		for rung, probe := range pairs {
			a, b := r.Diagnostics[rung].Value, r.Metrics[probe].Value
			if a <= 0 || b <= 0 || a > 3*b || b > 3*a {
				t.Errorf("%s: %s = %.1f ns per packet, %s = %.1f ns", name, rung, a, probe, b)
			}
		}
	}
}

// TestCtlChurnStall turns stage B's churn off: the watcher must give up on
// the epoch that never comes, count it as a failed operation and return,
// instead of waiting for ever.
func TestCtlChurnStall(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a loopback fleet")
	}
	w := newCtlChurn(true).(*ctlChurnWL)
	w.churnMS = 0
	if err := w.setup(5); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	r := newReport("ctl-churn", 5, false)
	var cal calibrator
	done := make(chan []float64, 1)
	go func() { done <- w.watchEpochs(100*time.Millisecond, &cal, r) }()
	select {
	case conv := <-done:
		if len(conv) != 0 || r.Failed != 1 || len(r.Violations) != 1 {
			t.Errorf("stalled control plane: %d samples, %d failed, violations %v", len(conv), r.Failed, r.Violations)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchEpochs did not return on a control plane that appends no epoch")
	}
}

// TestBenchmarkJSONMatchesRunner is the drift test: the workload and metric
// names and units in BENCHMARK.json are exactly the ones the runner emits.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	want = append(want, workloadOrder...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the runner %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] || workloads[got[i]] == nil {
			t.Fatalf("workloads: BENCHMARK.json has %v, the runner %v", got, want)
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the runner emits %d", kind, len(names), len(defs))
		}
		inFile := map[string]string{}
		for i, n := range names {
			inFile[n] = units[i]
		}
		for _, d := range defs {
			if u, ok := inFile[d.name]; !ok {
				t.Errorf("%s: the runner emits %s, BENCHMARK.json does not list it", kind, d.name)
			} else if u != d.unit {
				t.Errorf("%s: %s is in %s in the runner and %s in BENCHMARK.json", kind, d.name, d.unit, u)
			}
		}
	}
	var n, u []string
	for _, m := range bf.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEndMetrics, n, u)
	n, u = nil, nil
	for _, m := range bf.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayerMetrics, n, u)
}
