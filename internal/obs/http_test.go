package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"duet/internal/telemetry"
)

// newTestServer builds a pipeline with one counter, one firing-capable rule,
// and a recorder, behind an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *Pipeline, *telemetry.Registry, *fakeClock) {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(256)
	clk := &fakeClock{}
	p := New(Config{Registry: reg, Recorder: rec, Windows: 8, Now: clk.now})
	srv := httptest.NewServer(NewServer(p).Handler())
	t.Cleanup(srv.Close)
	return srv, p, reg, clk
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHTTPMetrics(t *testing.T) {
	srv, p, reg, _ := newTestServer(t)
	reg.Counter("hmux.packets").Shard().Add(9)
	p.Tick()
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if _, _, err := parsePrometheus([]byte(body)); err != nil {
		t.Fatalf("/metrics not parseable: %v", err)
	}
	if !strings.Contains(body, "duet_hmux_packets 9") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
}

func TestHTTPTimeseries(t *testing.T) {
	srv, p, reg, clk := newTestServer(t)
	c := reg.Counter("x").Shard()
	for i := 0; i < 3; i++ {
		c.Inc()
		p.Tick()
		clk.advance(1)
	}
	code, body := get(t, srv.URL+"/timeseries?last=1")
	if code != http.StatusOK {
		t.Fatalf("/timeseries status = %d", code)
	}
	var d TimeSeriesDump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("/timeseries not decodable: %v", err)
	}
	if d.Ticks != 3 {
		t.Fatalf("dump ticks = %d, want 3", d.Ticks)
	}
	for _, s := range d.Series {
		if len(s.Points) > 1 {
			t.Fatalf("series %s has %d points, want last=1 honored", s.Name, len(s.Points))
		}
		if s.Name == "x" && s.Points[0].Value != 3 {
			t.Fatalf("series x last value = %g, want 3", s.Points[0].Value)
		}
	}
	if code, _ := get(t, srv.URL+"/timeseries?last=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad last parameter status = %d, want 400", code)
	}
}

// TestHTTPTimeseriesWindowAndQuantile covers the filtering parameters: a
// window keeps only recent points, a quantile selects the matching derived
// histogram series, and malformed values are rejected with 400.
func TestHTTPTimeseriesWindowAndQuantile(t *testing.T) {
	srv, p, reg, clk := newTestServer(t)
	c := reg.Counter("x").Shard()
	h := reg.Histogram("lat", []float64{0.001, 0.01})
	for i := 0; i < 5; i++ {
		c.Inc()
		h.Observe(0.005)
		p.Tick()
		clk.advance(1)
	}

	// Ticks ran at t=0..4; a 1.5s window spans the last two.
	code, body := get(t, srv.URL+"/timeseries?window=1.5")
	if code != http.StatusOK {
		t.Fatalf("/timeseries?window status = %d", code)
	}
	var d TimeSeriesDump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Series {
		if s.Name == "x" && len(s.Points) != 2 {
			t.Fatalf("window=1.5 kept %d points of x, want 2", len(s.Points))
		}
	}

	code, body = get(t, srv.URL+"/timeseries?quantile=p99")
	if err := json.Unmarshal([]byte(body), &d); code != http.StatusOK || err != nil {
		t.Fatalf("/timeseries?quantile = %d, %v", code, err)
	}
	var sawP99, sawP50 bool
	for _, s := range d.Series {
		switch {
		case strings.HasSuffix(s.Name, ".p99"):
			sawP99 = true
		case strings.HasSuffix(s.Name, ".p50"):
			sawP50 = true
		case s.Name == "x", strings.HasSuffix(s.Name, ".count"):
			// non-quantile series stay in the dump
		}
	}
	if !sawP99 || sawP50 {
		t.Fatalf("quantile=p99 filter: sawP99=%v sawP50=%v", sawP99, sawP50)
	}

	for _, q := range []string{"window=0", "window=-1", "window=x", "quantile=p75"} {
		if code, _ := get(t, srv.URL+"/timeseries?"+q); code != http.StatusBadRequest {
			t.Errorf("?%s status = %d, want 400", q, code)
		}
	}
}

// TestHTTPTimeseriesEmpty checks the zero-tick shape: valid JSON, zero
// ticks, no points — not an error.
func TestHTTPTimeseriesEmpty(t *testing.T) {
	srv, _, reg, _ := newTestServer(t)
	reg.Counter("x") // registered but never scraped
	code, body := get(t, srv.URL+"/timeseries?window=10&quantile=p50")
	if code != http.StatusOK {
		t.Fatalf("empty /timeseries status = %d", code)
	}
	var d TimeSeriesDump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.Ticks != 0 {
		t.Fatalf("empty dump ticks = %d", d.Ticks)
	}
	for _, s := range d.Series {
		if len(s.Points) != 0 {
			t.Fatalf("series %s has points before any tick", s.Name)
		}
	}
}

func TestHTTPTraceJSON(t *testing.T) {
	srv, p, _, _ := newTestServer(t)
	p.Recorder().RecordAt(3.5, telemetry.KindTraceHop, 7, uint32(telemetry.TraceTierSMux), 9, 42)
	code, body := get(t, srv.URL+"/trace.json")
	if code != http.StatusOK {
		t.Fatalf("/trace.json status = %d", code)
	}
	var events []telemetry.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/trace.json not decodable: %v", err)
	}
	if len(events) != 1 || events[0].Kind != telemetry.KindTraceHop || events[0].Aux != 42 {
		t.Fatalf("/trace.json events = %+v", events)
	}
}

func TestHTTPHealthzAndAlerts(t *testing.T) {
	srv, p, reg, clk := newTestServer(t)
	g := reg.Gauge("load")
	p.AddRules(Rule{Name: "overload", Num: "load", NumSrc: Value, Op: Above, Threshold: 10})

	g.Set(5)
	p.Tick()
	clk.advance(1)
	if code, body := get(t, srv.URL+"/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}

	g.Set(50)
	p.Tick()
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("firing /healthz status = %d, want 503", code)
	}
	if !strings.Contains(body, "overload") || !strings.Contains(body, "FIRING") {
		t.Fatalf("firing /healthz body:\n%s", body)
	}

	code, body = get(t, srv.URL+"/alerts")
	if code != http.StatusOK {
		t.Fatalf("/alerts status = %d", code)
	}
	var alerts []Alert
	if err := json.Unmarshal([]byte(body), &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Rule != "overload" || !alerts[0].Firing {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestHTTPTraceAndPprof(t *testing.T) {
	srv, p, _, _ := newTestServer(t)
	p.Recorder().Record(telemetry.KindSwitchFail, 3, 0, 0, 0)
	code, body := get(t, srv.URL+"/trace")
	if code != http.StatusOK || !strings.Contains(body, "switch-fail") {
		t.Fatalf("/trace = %d %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", code)
	}
	if code, body := get(t, srv.URL+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/nosuch"); code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", code)
	}
}
