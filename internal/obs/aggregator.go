package obs

// The fleet aggregator: cluster-scope observability over a set of duetd
// processes. One obs-role node polls every peer's /metrics (the Prometheus
// text the exposition server renders, re-ingested by promparse.go) and
// /trace.json (the flight recorder as JSON events), and folds them into:
//
//   - merged cluster gauges in the node's own registry (cluster.*), which
//     the node's ordinary scrape pipeline turns into time series and the
//     cluster-scope watchdogs (ClusterRules) evaluate;
//   - stitched cross-process packet journeys (journey.go) — one sampled
//     packet's ordered HMux→{NMux|SMux}→host timeline with inter-hop wire
//     latency;
//   - merged latency distributions: every node's per-poll histogram bucket
//     deltas summed per histogram name and read with the one bucket
//     estimator (telemetry.BucketQuantile), so a fleet-wide p99 exists even
//     though no single process observed the whole fleet.
//
// The §6 operations story needs exactly this view: "which tier served the
// traffic", "is any node down", "is one NIC table full while its peers sit
// empty" are fleet questions no single node's /metrics can answer.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"duet/internal/telemetry"
)

// Target is one polled node.
type Target struct {
	Name string `json:"name"`
	Role string `json:"role"`
	URL  string `json:"url"` // base URL, e.g. "http://127.0.0.1:9001"
}

// NodeStatus is one target's health as seen by the poller.
type NodeStatus struct {
	Target
	Up  bool   `json:"up"`
	Err string `json:"error,omitempty"`
}

// CDFSummary is one merged fleet histogram in the /cluster/cdf payload: the
// observations every node made since the previous poll.
type CDFSummary struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
}

// AggregatorConfig wires an Aggregator.
type AggregatorConfig struct {
	// Targets are the nodes to poll (required, non-empty).
	Targets []Target
	// Pipeline is the obs node's own pipeline: merged cluster gauges are
	// published into its registry, so cluster series ride the ordinary
	// scrape machinery and ClusterRules evaluate like any other watchdog.
	Pipeline *Pipeline
	// Client is the poll HTTP client (default: 2s total timeout).
	Client *http.Client
}

// maxJourneys bounds the retained stitched journeys, newest kept.
const maxJourneys = 128

// Aggregator polls a fleet and maintains the merged cluster view. PollOnce
// is the only writer of the merged state; HTTP readers take the same mutex.
type Aggregator struct {
	cfg    AggregatorConfig
	client *http.Client

	// Merged cluster gauges (constant names, registered once). All live in
	// the obs node's own registry.
	nodesTotal, nodesUp        *telemetry.Gauge
	fleetRx, fleetDelivered    *telemetry.Gauge
	fleetDrops                 *telemetry.Gauge
	tierHMux, tierNMux         *telemetry.Gauge
	tierSMux, tierTotal        *telemetry.Gauge
	nmuxSkew, overlaySkew      *telemetry.Gauge
	steerDrainsMax, journeysUp *telemetry.Gauge
	polls, pollErrs            telemetry.CounterShard

	mu       sync.Mutex
	statuses []NodeStatus
	journeys []Journey
	merged   []CDFSummary
	// prevHists: target name → histogram name → the histogram as exposed
	// at the previous poll, the state behind per-poll deltas.
	prevHists map[string]map[string]*nodeHist
}

// NewAggregator builds the aggregator and registers its cluster gauges in
// the pipeline's registry.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	if cfg.Pipeline == nil || len(cfg.Targets) == 0 {
		panic("obs: aggregator needs a pipeline and at least one target")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 2 * time.Second}
	}
	reg := cfg.Pipeline.Registry()
	a := &Aggregator{
		cfg:            cfg,
		client:         cfg.Client,
		nodesTotal:     reg.Gauge("cluster.nodes.total"),
		nodesUp:        reg.Gauge("cluster.nodes.up"),
		fleetRx:        reg.Gauge("cluster.fleet.rx_frames"),
		fleetDelivered: reg.Gauge("cluster.fleet.delivered"),
		fleetDrops:     reg.Gauge("cluster.fleet.drops"),
		tierHMux:       reg.Gauge("cluster.tier.hmux"),
		tierNMux:       reg.Gauge("cluster.tier.nmux"),
		tierSMux:       reg.Gauge("cluster.tier.smux"),
		tierTotal:      reg.Gauge("cluster.tier.total"),
		nmuxSkew:       reg.Gauge("cluster.nmux.skew_pm"),
		overlaySkew:    reg.Gauge("cluster.overlay.skew_pm"),
		steerDrainsMax: reg.Gauge("cluster.steer.drains_max"),
		journeysUp:     reg.Gauge("cluster.journeys"),
		polls:          reg.Counter("cluster.polls").Shard(),
		pollErrs:       reg.Counter("cluster.poll.errors").Shard(),
		prevHists:      make(map[string]map[string]*nodeHist),
	}
	a.nodesTotal.Set(int64(len(cfg.Targets)))
	return a
}

// nodePoll is what one target's poll produced.
type nodePoll struct {
	status  NodeStatus
	samples []promSample
	types   map[string]string
	events  []telemetry.Event
}

// fetch GETs one path from one target.
func (a *Aggregator) fetch(t Target, path string) ([]byte, error) {
	resp, err := a.client.Get(t.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: status %d", t.URL, path, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}

// pollTarget polls one node. A node that answers /metrics but not
// /trace.json (an older build, say) still counts as up; only the metrics
// fetch decides liveness.
func (a *Aggregator) pollTarget(t Target) nodePoll {
	np := nodePoll{status: NodeStatus{Target: t}}
	raw, err := a.fetch(t, "/metrics")
	if err == nil {
		np.types, np.samples, err = parsePrometheus(raw)
	}
	if err != nil {
		np.status.Err = err.Error()
		return np
	}
	np.status.Up = true
	if tr, err := a.fetch(t, "/trace.json"); err == nil {
		_ = json.Unmarshal(tr, &np.events) // best effort; bad JSON = no events
	}
	return np
}

// PollOnce polls every target and rebuilds the merged cluster view. Safe
// for concurrent use with the HTTP readers; polls themselves serialize.
func (a *Aggregator) PollOnce() {
	a.polls.Inc()
	polls := make([]nodePoll, len(a.cfg.Targets))
	var wg sync.WaitGroup
	for i, t := range a.cfg.Targets {
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			polls[i] = a.pollTarget(t)
		}(i, t)
	}
	wg.Wait()

	a.mu.Lock()
	defer a.mu.Unlock()
	a.statuses = a.statuses[:0]
	var up int64
	sums := map[string]float64{}
	// Occupancy fractions per node, for the skew gauges.
	var nmuxFracs, overlayFracs []float64
	var drainsMax float64
	var events []telemetry.Event
	fleet := map[string]*fleetHist{}
	for _, np := range polls {
		a.statuses = append(a.statuses, np.status)
		if !np.status.Up {
			a.pollErrs.Inc()
			delete(a.prevHists, np.status.Name) // restart resets its counters
			continue
		}
		up++
		byName := map[string]float64{}
		for _, s := range np.samples {
			byName[s.name] += s.value
			sums[s.name] += s.value
			// Every tier's labeled drop counters fold into one fleet series.
			// duet_wire_drops_total is excluded: it already sums the labeled
			// wire drops, so counting it too would double the wire share.
			if strings.Contains(s.name, "_drops_") && s.name != "duet_wire_drops_total" {
				sums["drops"] += s.value
			}
		}
		if c := byName["duet_nmux_tables_cap"]; c > 0 {
			nmuxFracs = append(nmuxFracs, byName["duet_nmux_tables_used_max"]/c)
		}
		if c := byName["duet_smux_overlay_cap"]; c > 0 {
			overlayFracs = append(overlayFracs, byName["duet_smux_overlay_total"]/c)
		}
		if d := byName["duet_steer_drains_active"]; d > drainsMax {
			drainsMax = d
		}
		events = append(events, np.events...)
		a.mergeHistograms(np, fleet)
	}
	a.nodesUp.Set(up)
	a.fleetRx.Set(int64(sums["duet_wire_rx_frames"]))
	a.fleetDelivered.Set(int64(sums["duet_wire_delivered"]))
	a.fleetDrops.Set(int64(sums["drops"]))
	hm, nm, sm := sums["duet_hmux_encapped"], sums["duet_nmux_encapped"], sums["duet_smux_encapped"]
	a.tierHMux.Set(int64(hm))
	a.tierNMux.Set(int64(nm))
	a.tierSMux.Set(int64(sm))
	a.tierTotal.Set(int64(hm + nm + sm))
	a.nmuxSkew.Set(skewPerMille(nmuxFracs))
	a.overlaySkew.Set(skewPerMille(overlayFracs))
	a.steerDrainsMax.Set(int64(drainsMax))

	// Journeys are rebuilt stateless from whatever the fleet's recorders
	// currently retain: the ring keeps the last 4K events per node, so a
	// journey ages out everywhere at roughly the same time.
	js := StitchJourneys(events)
	if len(js) > maxJourneys {
		js = js[len(js)-maxJourneys:]
	}
	a.journeys = js
	a.journeysUp.Set(int64(len(js)))

	a.merged = a.merged[:0]
	for name, f := range fleet {
		if f.total == 0 {
			continue
		}
		a.merged = append(a.merged, CDFSummary{
			Name: name, N: int(f.total), Mean: f.sum / float64(f.total),
			P50: telemetry.BucketQuantile(f.bounds, f.counts, f.total, 0.5),
			P99: telemetry.BucketQuantile(f.bounds, f.counts, f.total, 0.99),
		})
	}
	sort.Slice(a.merged, func(i, j int) bool { return a.merged[i].Name < a.merged[j].Name })
}

// nodeHist is one node's histogram as its /metrics exposed it: finite upper
// bounds, cumulative bucket counts (one more than bounds — the +Inf bucket,
// which is also the observation count) and the sum of observed values.
type nodeHist struct {
	bounds []float64
	cum    []float64
	sum    float64
}

// fleetHist is one histogram name's window across the fleet: per-bucket
// counts, their total and the value sum, over what each node observed since
// the previous poll.
type fleetHist struct {
	bounds []float64
	counts []uint64
	total  uint64
	sum    float64
}

// parseHistograms gathers a poll's histograms by exposition name. The
// renderer emits buckets sorted by bound with +Inf last, so appending in
// sample order keeps bounds and counts aligned.
func parseHistograms(np nodePoll) map[string]*nodeHist {
	hists := map[string]*nodeHist{}
	get := func(base string) *nodeHist {
		h := hists[base]
		if h == nil {
			h = &nodeHist{}
			hists[base] = h
		}
		return h
	}
	for _, s := range np.samples {
		if base, ok := strings.CutSuffix(s.name, "_bucket"); ok && np.types[base] == "histogram" {
			h := get(base)
			if le := s.labels["le"]; le != "+Inf" {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					continue
				}
				h.bounds = append(h.bounds, b)
			}
			h.cum = append(h.cum, s.value)
		} else if base, ok := strings.CutSuffix(s.name, "_sum"); ok && np.types[base] == "histogram" {
			get(base).sum = s.value
		}
	}
	return hists
}

// mergeHistograms adds one node's histogram deltas since the previous poll
// to the per-name fleet windows. The first node to report a name fixes its
// bounds; a node whose bounds differ is left out of that name rather than
// mis-added. Caller holds a.mu.
func (a *Aggregator) mergeHistograms(np nodePoll, fleet map[string]*fleetHist) {
	prev := a.prevHists[np.status.Name]
	if prev == nil {
		prev = make(map[string]*nodeHist)
		a.prevHists[np.status.Name] = prev
	}
	for name, h := range parseHistograms(np) {
		n := len(h.cum)
		if n != len(h.bounds)+1 {
			continue // no +Inf bucket: not the renderer's triple
		}
		old := prev[name]
		prev[name] = h
		// First sight, or the count went backwards (a restart between two
		// successful polls): the window is everything the node has seen.
		if old == nil || !slices.Equal(old.bounds, h.bounds) || h.cum[n-1] < old.cum[n-1] {
			old = &nodeHist{cum: make([]float64, n)}
		}
		f := fleet[name]
		if f == nil {
			f = &fleetHist{bounds: h.bounds, counts: make([]uint64, n)}
			fleet[name] = f
		} else if !slices.Equal(f.bounds, h.bounds) {
			continue
		}
		var below, oldBelow float64
		for i := range h.cum {
			d := (h.cum[i] - below) - (old.cum[i] - oldBelow) // de-cumulate both polls
			below, oldBelow = h.cum[i], old.cum[i]
			if d > 0 {
				f.counts[i] += uint64(d)
				f.total += uint64(d)
			}
		}
		f.sum += h.sum - old.sum
	}
}

// skewPerMille is max−min of the fractions, in per-mille (0 when fewer
// than two nodes report the gauge — skew needs a comparison).
func skewPerMille(fracs []float64) int64 {
	if len(fracs) < 2 {
		return 0
	}
	lo, hi := fracs[0], fracs[0]
	for _, f := range fracs[1:] {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return int64((hi - lo) * 1000)
}

// Start polls on a real ticker until the returned stop function is called.
// The first poll runs immediately, so the cluster series exist within one
// scrape of startup.
func (a *Aggregator) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	t := time.NewTicker(interval) //duet:allow noclock real fleet poll cadence; tests drive PollOnce directly
	go func() {
		defer wg.Done()
		defer t.Stop()
		a.PollOnce()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				a.PollOnce()
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			a.client.CloseIdleConnections()
		})
	}
}

// Journeys returns the stitched journeys from the latest poll, oldest first.
func (a *Aggregator) Journeys() []Journey {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Journey, len(a.journeys))
	copy(out, a.journeys)
	return out
}

// Nodes returns every target's status from the latest poll.
func (a *Aggregator) Nodes() []NodeStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]NodeStatus, len(a.statuses))
	copy(out, a.statuses)
	return out
}

// MergedCDFs returns the latest poll's fleet-merged histogram summaries.
func (a *Aggregator) MergedCDFs() []CDFSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]CDFSummary, len(a.merged))
	copy(out, a.merged)
	return out
}

// Handler mounts the cluster views in front of next (the node's own obs
// endpoints):
//
//	/cluster/metrics   merged cluster series (Prometheus text, full registry)
//	/cluster/alerts    watchdog transitions incl. cluster rules (JSON)
//	/cluster/journeys  stitched cross-process packet journeys (JSON)
//	/cluster/nodes     per-target poll status (JSON)
//	/cluster/cdf       fleet-merged histogram summaries (JSON)
func (a *Aggregator) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = a.cfg.Pipeline.WritePrometheus(w)
	})
	mux.HandleFunc("/cluster/alerts", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(a.cfg.Pipeline.Alerts())
	})
	mux.HandleFunc("/cluster/journeys", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(a.Journeys())
	})
	mux.HandleFunc("/cluster/nodes", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(a.Nodes())
	})
	mux.HandleFunc("/cluster/cdf", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(a.MergedCDFs())
	})
	return mux
}
