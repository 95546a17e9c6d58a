// Command bench is the repository's one benchmark: four workloads, a fixed
// set of end-to-end metrics every workload reports, and an outside-in ledger
// of per-layer metrics from a separate traced run. See README.md beside this
// file for why each workload and metric exists, and BENCHMARK.json at the
// repository root for the names and bounds.
//
//	bash bench/run.sh -workload hw-steady -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -repeat 2 -compare
//
// Every run prints a detailed JSON report (raw values beside calibrated
// ones, sample counts, workload-specific diagnostics) followed, as the last
// line of standard output, by the one-line summary
// {"correct","attempted","failed","metrics"}. The exit code is non-zero when
// an oracle or a validity assertion fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metricValue is one reported number. Raw is the uncalibrated median of a
// calibrated metric; N the number of samples behind a median or percentile.
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Raw   *float64 `json:"raw,omitempty"`
	N     int      `json:"n,omitempty"`
}

// report is one run of one workload.
type report struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Metrics holds the contract metrics: every end-to-end metric of
	// BENCHMARK.json on an untraced run, every per-layer metric on a traced
	// one.
	Metrics map[string]metricValue `json:"metrics"`
	// Diagnostics are workload-specific numbers outside the contract (tail
	// percentiles, open-loop latency, per-mode breakdowns).
	Diagnostics map[string]metricValue `json:"diagnostics,omitempty"`
	// Violations lists every failed oracle or validity assertion.
	Violations []string `json:"violations,omitempty"`
}

func newReport(name string, seed int64, traced bool) *report {
	return &report{
		Workload: name, Seed: seed, Traced: traced,
		Metrics:     map[string]metricValue{},
		Diagnostics: map[string]metricValue{},
	}
}

// set reports a number: as a contract metric when this run measures one of
// that name (metrics.go), as a diagnostic otherwise. The oracle ratios and the
// counters are per-layer metrics of a traced run and diagnostics of an
// untraced one, from the same call.
func (r *report) set(name string, v float64, unit string, n int) {
	if r.wants(name) {
		r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
	} else {
		r.diag(name, v, unit, n)
	}
}

// setCal is set for a calibrated number, with its raw value beside it.
func (r *report) setCal(name string, v, raw float64, unit string, n int) {
	r.set(name, v, unit, n)
	if mv, ok := r.Metrics[name]; ok {
		mv.Raw = &raw
		r.Metrics[name] = mv
	}
}

func (r *report) diag(name string, v float64, unit string, n int) {
	r.Diagnostics[name] = metricValue{Value: v, Unit: unit, N: n}
}

// violate records a failed oracle; the run then reports correct=false and
// the process exits non-zero.
func (r *report) violate(format string, args ...any) {
	if len(r.Violations) < 32 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// assert records a violation unless ok.
func (r *report) assert(ok bool, format string, args ...any) {
	if !ok {
		r.violate(format, args...)
	}
}

// workload is one benchmark workload. setup builds everything up to the
// first timed slice from the seed; measure is the untraced end-to-end run,
// trace the separate per-layer run; each measures for about d.
type workload interface {
	setup(seed int64) error
	measure(d time.Duration, r *report)
	trace(d time.Duration, r *report)
	close()
}

// workloads maps the names in BENCHMARK.json to constructors; toy scales a
// workload down for bench_test.go.
var workloads = map[string]func(toy bool) workload{
	"hw-steady":  newHWSteady,
	"sw-churn":   newSWChurn,
	"wire-fleet": newWireFleet,
	"ctl-churn":  newCtlChurn,
}

// workloadOrder is the order "-workload all" runs them in.
var workloadOrder = []string{"hw-steady", "sw-churn", "wire-fleet", "ctl-churn"}

// A run sets its workload up at least minSetups times, and until the set-ups
// have taken setupBudget together (at most maxSetups times); setup_s is the
// median, so one slow bootstrap does not decide it. The reference kernel runs
// between set-ups and setup_s is calibrated like the other timings: set-up is
// short, and the machine's drift between two sets of runs would otherwise
// exceed any bound.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

// runOne runs one workload once. The first set-up is timed from process
// start when this is the process's first run, so runtime start-up counts.
func runOne(name string, seed int64, d time.Duration, traced, toy bool) (*report, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	r := newReport(name, seed, traced)
	var setups []float64
	var cal calibrator
	var w workload
	var total time.Duration
	for i := 0; i < minSetups || (total < setupBudget && i < maxSetups); i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		if i == 0 {
			if !processStartUsed {
				t0, processStartUsed = processStart, true
			} else {
				resetPeakRSS() // an earlier run of this process must not lend this one its peak
			}
		}
		w = mk(toy)
		if err := w.setup(seed); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		el := time.Since(t0)
		setups = append(setups, el.Seconds())
		total += el
		for k := 0; k < 3; k++ {
			cal.tick()
		}
	}
	defer w.close()
	if traced {
		w.trace(d, r)
	} else {
		w.measure(d, r)
		raw := median(setups)
		r.setCal("setup_s", cal.scale(raw), raw, "s", len(setups))
		r.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	}
	r.conform()
	r.Correct = len(r.Violations) == 0
	return r, nil
}

var processStartUsed bool

// summaryLine is the contract's last line of standard output.
func summaryLine(r *report) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for k, v := range r.Metrics {
		out.Metrics[k] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

func main() {
	var (
		wl       = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "how long one run measures")
		traceOn  = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file")
		repeat   = flag.Int("repeat", 1, "run the selected set this many times")
		compare  = flag.Bool("compare", false, "with -repeat 2, compare the two sets against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	names := []string{*wl}
	if *wl == "all" {
		names = workloadOrder
	}
	d := time.Duration(*seconds) * time.Second
	if *compare {
		os.Exit(runCompare(names, *seed, d, *repeat))
	}
	exit := 0
	var last *report
	for rep := 0; rep < *repeat; rep++ {
		for _, name := range names {
			spans.reset()
			r, err := runOne(name, *seed, d, *traceOn == 1, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
			detail, _ := json.MarshalIndent(r, "", "  ")
			fmt.Println(string(detail))
			if !r.Correct {
				exit = 1
			}
			if *traceOut != "" {
				if err := spans.writeFile(*traceOut); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(2)
				}
			}
			last = r
		}
	}
	if len(names) == 1 {
		fmt.Println(summaryLine(last))
	}
	os.Exit(exit)
}
