package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"duet/internal/telemetry"
)

// fakeNode is one polled duetd stand-in: a real registry + recorder behind
// the real exposition handler, so the aggregator exercises the actual
// /metrics text and /trace.json feed it will see in production.
type fakeNode struct {
	reg *telemetry.Registry
	rec *telemetry.Recorder
	srv *httptest.Server
}

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	n := &fakeNode{reg: telemetry.NewRegistry(), rec: telemetry.NewRecorder(256)}
	clk := &fakeClock{}
	p := New(Config{Registry: n.reg, Recorder: n.rec, Windows: 4, Now: clk.now})
	n.srv = httptest.NewServer(NewServer(p).Handler())
	t.Cleanup(n.srv.Close)
	return n
}

func (n *fakeNode) target(name, role string) Target {
	return Target{Name: name, Role: role, URL: n.srv.URL}
}

// newObsNode builds the aggregator's own pipeline (the obs-role node).
func newObsNode(t *testing.T, targets ...Target) (*Aggregator, *Pipeline, *telemetry.Registry, *fakeClock) {
	t.Helper()
	reg := telemetry.NewRegistry()
	clk := &fakeClock{}
	p := New(Config{Registry: reg, Recorder: telemetry.NewRecorder(256), Windows: 8, Now: clk.now})
	a := NewAggregator(AggregatorConfig{Targets: targets, Pipeline: p})
	t.Cleanup(a.client.CloseIdleConnections)
	return a, p, reg, clk
}

// TestAggregatorPollOnceMergesFleet checks the merged cluster gauges, the
// skew computation, and a journey stitched from two processes' recorders.
func TestAggregatorPollOnceMergesFleet(t *testing.T) {
	a1, a2 := newFakeNode(t), newFakeNode(t)

	a1.reg.Counter("wire.rx.frames").Shard().Add(100)
	a1.reg.Counter("wire.delivered").Shard().Add(90)
	a1.reg.Counter("wire.drops.bad_frame").Shard().Add(4)
	a1.reg.Counter("wire.drops.total").Shard().Add(4) // rollup: must not double count
	a1.reg.Counter("hmux.encapped").Shard().Add(60)
	a1.reg.Counter("smux.encapped").Shard().Add(30)
	a1.reg.Gauge("nmux.tables.used_max").Set(10)
	a1.reg.Gauge("nmux.tables.cap").Set(100)

	a2.reg.Counter("wire.rx.frames").Shard().Add(50)
	a2.reg.Counter("wire.delivered").Shard().Add(45)
	a2.reg.Counter("wire.drops.short_read").Shard().Add(6)
	a2.reg.Counter("wire.drops.total").Shard().Add(6)
	a2.reg.Counter("nmux.encapped").Shard().Add(10)
	a2.reg.Counter("smux.encapped").Shard().Add(20)
	a2.reg.Gauge("nmux.tables.used_max").Set(50)
	a2.reg.Gauge("nmux.tables.cap").Set(100)
	a2.reg.Gauge("steer.drains_active").Set(2)

	// One sampled packet: HMux hop on node 1, delivery hop on node 2.
	a1.rec.RecordAt(10.0, telemetry.KindTraceHop, 0x01000001, uint32(telemetry.TraceTierHMux), 0x0a000001, 5)
	a2.rec.RecordAt(10.2, telemetry.KindTraceHop, 0x64000001, uint32(telemetry.TraceTierHost), 0x64000001, 5)

	agg, _, reg, _ := newObsNode(t, a1.target("a1", "switchagent"), a2.target("a2", "smux"))
	agg.PollOnce()

	gauge := func(name string) int64 { return reg.Gauge(name).Value() }
	checks := []struct {
		name string
		want int64
	}{
		{"cluster.nodes.total", 2},
		{"cluster.nodes.up", 2},
		{"cluster.fleet.rx_frames", 150},
		{"cluster.fleet.delivered", 135},
		{"cluster.fleet.drops", 10},
		{"cluster.tier.hmux", 60},
		{"cluster.tier.nmux", 10},
		{"cluster.tier.smux", 50},
		{"cluster.tier.total", 120},
		{"cluster.nmux.skew_pm", 400}, // |0.5 - 0.1| in per-mille
		{"cluster.overlay.skew_pm", 0},
		{"cluster.steer.drains_max", 2},
		{"cluster.journeys", 1},
	}
	for _, c := range checks {
		if got := gauge(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}

	js := agg.Journeys()
	if len(js) != 1 {
		t.Fatalf("journeys = %+v, want 1 stitched across processes", js)
	}
	if js[0].Tiers() != "hmux>host" || js[0].Hops[0].Node == js[0].Hops[1].Node {
		t.Fatalf("journey = tiers %q nodes %s>%s", js[0].Tiers(), js[0].Hops[0].Node, js[0].Hops[1].Node)
	}
	if g := js[0].Hops[1].Gap; g < 0.19 || g > 0.21 {
		t.Fatalf("inter-hop gap = %g, want ~0.2", g)
	}
}

// TestAggregatorJourneysKeepNewest: when the fleet's recorders hold more
// stitched journeys than the aggregator retains, it keeps the newest 128 by
// start time, each still stitched across both processes.
func TestAggregatorJourneysKeepNewest(t *testing.T) {
	a1, a2 := newFakeNode(t), newFakeNode(t)
	const traces = 200 // one event per trace per node: inside each 256-event ring
	for id := uint64(1); id <= traces; id++ {
		a1.rec.RecordAt(float64(id), telemetry.KindTraceHop, 0x01000001, uint32(telemetry.TraceTierHMux), 0x0a000001, id)
		a2.rec.RecordAt(float64(id)+0.5, telemetry.KindTraceHop, 0x64000001, uint32(telemetry.TraceTierHost), 0x64000001, id)
	}
	agg, _, reg, _ := newObsNode(t, a1.target("a1", "switchagent"), a2.target("a2", "smux"))
	agg.PollOnce()

	js := agg.Journeys()
	if len(js) != maxJourneys {
		t.Fatalf("%d journeys retained, want %d", len(js), maxJourneys)
	}
	for i, j := range js {
		if want := float64(traces - maxJourneys + 1 + i); j.Start != want || j.Tiers() != "hmux>host" {
			t.Fatalf("journey %d starts at %g through %q, want %g through hmux>host", i, j.Start, j.Tiers(), want)
		}
	}
	if got := reg.Gauge("cluster.journeys").Value(); got != maxJourneys {
		t.Fatalf("cluster.journeys = %d, want %d", got, maxJourneys)
	}
}

// TestAggregatorDownTarget checks poll liveness accounting: a dead target is
// reported down, its histogram state is forgotten (a restart resets
// counters), and the cluster-node-down watchdog walks inert→firing.
func TestAggregatorDownTarget(t *testing.T) {
	up := newFakeNode(t)
	dead := httptest.NewServer(nil)
	deadTarget := Target{Name: "dead", Role: "smux", URL: dead.URL}
	dead.Close()

	agg, p, reg, clk := newObsNode(t, up.target("up", "smux"), deadTarget)
	p.AddRules(ClusterRules(DefaultSLO())...)
	agg.prevHists["dead"] = map[string]*nodeHist{"duet_x": {cum: []float64{1}}}

	agg.PollOnce()
	if got := reg.Gauge("cluster.nodes.up").Value(); got != 1 {
		t.Fatalf("cluster.nodes.up = %d, want 1", got)
	}
	if reg.Counter("cluster.poll.errors").Value() == 0 {
		t.Fatal("poll errors not counted for the dead target")
	}
	if agg.prevHists["dead"] != nil {
		t.Fatal("down target's histogram state not discarded")
	}
	var down NodeStatus
	for _, st := range agg.Nodes() {
		if st.Name == "dead" {
			down = st
		}
	}
	if down.Name == "" || down.Up || down.Err == "" {
		t.Fatalf("dead node status = %+v", down)
	}

	// Three consecutive breaching scrapes flip cluster-node-down to firing.
	for i := 0; i < 3; i++ {
		p.Tick()
		clk.advance(1)
	}
	var firing bool
	for _, rs := range p.Status() {
		if rs.Name == "cluster-node-down" && rs.Firing {
			firing = true
		}
	}
	if !firing {
		t.Fatalf("cluster-node-down not firing; status = %+v", p.Status())
	}
	alerts := p.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "cluster-node-down" || !alerts[0].Firing {
		t.Fatalf("alerts = %+v", alerts)
	}
}

// TestAggregatorFleetAvailabilityRule drives the fleet-wide drop-fraction
// watchdog: sustained drops across polls must fire fleet-vip-availability
// even though each individual counter lives on a different node.
func TestAggregatorFleetAvailabilityRule(t *testing.T) {
	n := newFakeNode(t)
	rx := n.reg.Counter("wire.rx.frames").Shard()
	drops := n.reg.Counter("wire.drops.bad_frame").Shard()

	agg, p, _, clk := newObsNode(t, n.target("n1", "smux"))
	p.AddRules(ClusterRules(DefaultSLO())...)

	for i := 0; i < 4; i++ {
		rx.Add(1000)
		drops.Add(500) // 50% of ingress dropped — far over the 1% SLO
		agg.PollOnce()
		p.Tick()
		clk.advance(1)
	}
	var firing bool
	for _, rs := range p.Status() {
		if rs.Name == "fleet-vip-availability" && rs.Firing {
			firing = true
		}
	}
	if !firing {
		t.Fatalf("fleet-vip-availability not firing; status = %+v", p.Status())
	}
}

// TestAggregatorCDFMerge checks the histogram merge across polls: a window
// is exactly the observations since the previous poll (N is their count,
// not the cumulative total), and a quiet poll yields no entry.
func TestAggregatorCDFMerge(t *testing.T) {
	n := newFakeNode(t)
	h := n.reg.Histogram("wire.rtt", []float64{0.001, 0.01})
	for i := 0; i < 10; i++ {
		h.Observe(0.0005)
	}

	agg, _, _, _ := newObsNode(t, n.target("n1", "smux"))
	agg.PollOnce()
	merged := agg.MergedCDFs()
	if len(merged) != 1 || merged[0].Name != "duet_wire_rtt" {
		t.Fatalf("merged = %+v, want one duet_wire_rtt entry", merged)
	}
	if merged[0].N != 10 {
		t.Fatalf("first poll N = %d, want 10", merged[0].N)
	}
	if p50 := merged[0].P50; p50 <= 0 || p50 > 0.001 {
		t.Fatalf("p50 = %g, want within the first bucket", p50)
	}

	// No new observations: the deltas are zero, so nothing to merge.
	agg.PollOnce()
	if merged := agg.MergedCDFs(); len(merged) != 0 {
		t.Fatalf("quiet poll merged = %+v, want none", merged)
	}

	// New samples appear as exactly the delta, not the cumulative total.
	for i := 0; i < 4; i++ {
		h.Observe(0.05) // lands in the +Inf bucket
	}
	agg.PollOnce()
	merged = agg.MergedCDFs()
	if len(merged) != 1 || merged[0].N != 4 {
		t.Fatalf("delta poll merged = %+v, want N=4", merged)
	}
	if merged[0].P99 != 0.01 {
		t.Fatalf("+Inf bucket p99 = %g, want the last finite bound 0.01", merged[0].P99)
	}
	if math.Abs(merged[0].Mean-0.05) > 1e-12 {
		t.Fatalf("mean = %g, want the observed 0.05 (from _sum/_count, not a bucket edge)", merged[0].Mean)
	}
}

// TestOneBucketEstimator feeds the same observations to the three places a
// bucketed quantile is read — a histogram snapshot, the scrape pipeline's
// windowed series, and a fleet poll over two nodes holding unequal shares —
// and requires identical answers: all three call telemetry.BucketQuantile
// on the same counts. The merged count and mean are the sums.
func TestOneBucketEstimator(t *testing.T) {
	bounds := []float64{0.25, 0.5, 1, 2, 4}
	ramp := make([]float64, 64)
	for i := range ramp {
		ramp[i] = float64(i+1) / 16 // 1/16 .. 4: every sum is exact in binary
	}
	cases := []struct {
		name  string
		obs   []float64
		split int // observations [0,split) go to node a, the rest to node b
	}{
		{"ramp 5|59", ramp, 5},
		{"ramp 40|24", ramp, 40},
		{"one bucket 1|3", []float64{0.75, 0.75, 0.875, 1}, 1},
		{"overflow 2|1", []float64{0.125, 8, 16}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// One histogram sees everything, behind one pipeline tick.
			reg := telemetry.NewRegistry()
			h := reg.Histogram("lat", bounds)
			p := New(Config{Registry: reg, Recorder: telemetry.NewRecorder(64), Windows: 4, Now: (&fakeClock{}).now})
			// Two nodes split the same observations.
			a, b := newFakeNode(t), newFakeNode(t)
			ha, hb := a.reg.Histogram("lat", bounds), b.reg.Histogram("lat", bounds)
			var sum float64
			for i, v := range tc.obs {
				h.Observe(v)
				sum += v
				if i < tc.split {
					ha.Observe(v)
				} else {
					hb.Observe(v)
				}
			}
			p.Tick()
			agg, _, _, _ := newObsNode(t, a.target("a", "smux"), b.target("b", "smux"))
			agg.PollOnce()
			merged := agg.MergedCDFs()
			if len(merged) != 1 || merged[0].Name != "duet_lat" {
				t.Fatalf("merged = %+v, want one duet_lat entry", merged)
			}
			m := merged[0]

			snap := h.Snapshot()
			for _, q := range []struct {
				series string
				p, got float64
			}{{"lat.p50", 0.5, m.P50}, {"lat.p99", 0.99, m.P99}} {
				want := snap.Quantile(q.p)
				if pts, _ := p.Series(q.series); len(pts) != 1 || pts[0].Value != want {
					t.Errorf("pipeline %s = %+v, histogram says %v", q.series, pts, want)
				}
				if q.got != want {
					t.Errorf("fleet %s = %v, histogram says %v", q.series, q.got, want)
				}
			}
			if m.N != len(tc.obs) {
				t.Errorf("merged N = %d, want %d", m.N, len(tc.obs))
			}
			if want := sum / float64(len(tc.obs)); m.Mean != want {
				t.Errorf("merged mean = %v, want %v", m.Mean, want)
			}
		})
	}

	// A node whose bounds for the name differ from the first node's is left
	// out of that name, not added bucket-by-index.
	a, b := newFakeNode(t), newFakeNode(t)
	a.reg.Histogram("lat", bounds).Observe(0.125)
	b.reg.Histogram("lat", []float64{10, 20, 30, 40, 50}).Observe(45)
	agg, _, _, _ := newObsNode(t, a.target("a", "smux"), b.target("b", "smux"))
	agg.PollOnce()
	if merged := agg.MergedCDFs(); len(merged) != 1 || merged[0].N != 1 || merged[0].Mean != 0.125 {
		t.Fatalf("mismatched bounds merged = %+v, want node a's single observation", merged)
	}
}

// TestAggregatorHandler checks the /cluster endpoint tree and that unknown
// paths fall through to the wrapped per-node handler.
func TestAggregatorHandler(t *testing.T) {
	n := newFakeNode(t)
	n.reg.Counter("wire.rx.frames").Shard().Add(3)

	agg, p, _, _ := newObsNode(t, n.target("n1", "smux"))
	agg.PollOnce()
	p.Tick()

	srv := httptest.NewServer(agg.Handler(NewServer(p).Handler()))
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+"/cluster/metrics")
	if code != 200 || !strings.Contains(body, "duet_cluster_nodes_up 1") {
		t.Fatalf("/cluster/metrics = %d:\n%s", code, body)
	}
	code, body = get(t, srv.URL+"/cluster/nodes")
	var nodes []NodeStatus
	if code != 200 || json.Unmarshal([]byte(body), &nodes) != nil || len(nodes) != 1 || !nodes[0].Up {
		t.Fatalf("/cluster/nodes = %d %q", code, body)
	}
	code, body = get(t, srv.URL+"/cluster/journeys")
	var js []Journey
	if code != 200 || json.Unmarshal([]byte(body), &js) != nil {
		t.Fatalf("/cluster/journeys = %d %q", code, body)
	}
	code, body = get(t, srv.URL+"/cluster/alerts")
	var alerts []Alert
	if code != 200 || json.Unmarshal([]byte(body), &alerts) != nil {
		t.Fatalf("/cluster/alerts = %d %q", code, body)
	}
	code, body = get(t, srv.URL+"/cluster/cdf")
	var cdfs []CDFSummary
	if code != 200 || json.Unmarshal([]byte(body), &cdfs) != nil {
		t.Fatalf("/cluster/cdf = %d %q", code, body)
	}
	// Fallthrough: the node's own endpoints stay mounted under the wrapper.
	if code, body := get(t, srv.URL+"/metrics"); code != 200 || !strings.Contains(body, "duet_cluster_nodes_total") {
		t.Fatalf("wrapped /metrics = %d:\n%s", code, body)
	}
}

// TestAggregatorStartStop exercises the real poll loop once, mostly for the
// leak checker: Start must come back down cleanly.
func TestAggregatorStartStop(t *testing.T) {
	n := newFakeNode(t)
	agg, _, reg, _ := newObsNode(t, n.target("n1", "smux"))
	stop := agg.Start(time.Hour)
	// The first poll runs immediately at startup; wait for it.
	for i := 0; reg.Counter("cluster.polls").Value() == 0; i++ {
		if i > 1000 {
			t.Fatal("first poll never ran")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}
