package obs

import (
	"runtime"
	"testing"
	"time"

	"duet/internal/telemetry"
)

// fakeClock is an injectable test clock.
type fakeClock struct{ t float64 }

func (c *fakeClock) now() float64       { return c.t }
func (c *fakeClock) advance(dt float64) { c.t += dt }
func (c *fakeClock) pipeline(reg *telemetry.Registry, rec *telemetry.Recorder, windows int) *Pipeline {
	return New(Config{Registry: reg, Recorder: rec, Windows: windows, Now: c.now})
}

// TestScrapeDeltasAndRates checks the core contract: each tick stores the
// instantaneous value, the delta since the previous tick, and the rate over
// the tick interval.
func TestScrapeDeltasAndRates(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("pkts")
	g := reg.Gauge("occ")
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 8)

	ctr.Shard().Add(100)
	g.Set(7)
	p.Tick() // warm-up: delta/rate are zero on the first observation

	clk.advance(2)
	ctr.Shard().Add(300)
	g.Set(9)
	p.Tick()

	pts, ok := p.Series("pkts")
	if !ok || len(pts) != 2 {
		t.Fatalf("pkts series: ok=%v len=%d, want 2 points", ok, len(pts))
	}
	if pts[0].Value != 100 || pts[0].Delta != 0 || pts[0].Rate != 0 {
		t.Fatalf("warm-up point = %+v, want value=100 delta=0 rate=0", pts[0])
	}
	if pts[1].Value != 400 || pts[1].Delta != 300 || pts[1].Rate != 150 {
		t.Fatalf("second point = %+v, want value=400 delta=300 rate=150", pts[1])
	}
	gpts, _ := p.Series("occ")
	if gpts[1].Value != 9 || gpts[1].Delta != 2 {
		t.Fatalf("gauge point = %+v, want value=9 delta=2", gpts[1])
	}
}

// TestScrapeRingWraps checks that the ring retains exactly Windows points
// and Series returns them oldest first.
func TestScrapeRingWraps(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("c")
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 4)
	for i := 0; i < 10; i++ {
		ctr.Shard().Inc()
		p.Tick()
		clk.advance(1)
	}
	pts, _ := p.Series("c")
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4", len(pts))
	}
	for i, pt := range pts {
		if want := float64(7 + i); pt.Value != want {
			t.Fatalf("point %d value = %g, want %g", i, pt.Value, want)
		}
	}
}

// TestScrapeHistogramWindows checks the derived .count/.p50/.p99 series:
// quantiles reflect only the samples observed inside the window, not the
// cumulative distribution.
func TestScrapeHistogramWindows(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat", []float64{0.001, 0.01, 0.1, 1})
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 8)

	for i := 0; i < 100; i++ {
		h.Observe(0.0005) // all in the first bucket
	}
	p.Tick()
	clk.advance(1)

	for i := 0; i < 100; i++ {
		h.Observe(0.5) // this window sits in the (0.1, 1] bucket
	}
	p.Tick()

	cnt, _ := p.Series("lat.count")
	if cnt[1].Value != 200 || cnt[1].Delta != 100 {
		t.Fatalf("lat.count point = %+v, want value=200 delta=100", cnt[1])
	}
	p50, _ := p.Series("lat.p50")
	if got := p50[1].Value; got <= 0.1 || got > 1 {
		t.Fatalf("window p50 = %g, want within (0.1, 1] — cumulative leaked into the window", got)
	}
	if got := p50[0].Value; got > 0.001 {
		t.Fatalf("first window p50 = %g, want <= 0.001", got)
	}
}

// TestScrapeRebuildOnNewMetrics checks that metrics registered after the
// pipeline starts are picked up (Registry.Version moved) without disturbing
// existing rings.
func TestScrapeRebuildOnNewMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := reg.Counter("a")
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 8)
	a.Shard().Inc()
	p.Tick()
	clk.advance(1)

	b := reg.Counter("b")
	b.Shard().Add(5)
	a.Shard().Inc()
	p.Tick()

	apts, _ := p.Series("a")
	if len(apts) != 2 || apts[1].Value != 2 {
		t.Fatalf("series a = %+v, want 2 points ending at 2", apts)
	}
	bpts, ok := p.Series("b")
	if !ok || len(bpts) != 1 || bpts[0].Value != 5 {
		t.Fatalf("series b = %+v ok=%v, want 1 point of 5", bpts, ok)
	}
}

// TestScrapeZeroAlloc is the allocation gate on the scrape tick itself:
// after warm-up, a tick over counters, gauges, histograms, a collector and
// an armed (non-transitioning) rule set allocates nothing.
func TestScrapeZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("pkts")
	g := reg.Gauge("occ")
	h := reg.Histogram("lat", []float64{0.001, 0.01, 0.1})
	rec := telemetry.NewRecorder(256)
	clk := &fakeClock{}
	p := New(Config{Registry: reg, Recorder: rec, Windows: 16, Now: clk.now})
	p.AddCollector(func() { g.Set(int64(ctr.Value())) })
	p.AddRules(DefaultRules(DefaultSLO())...)
	p.AddRules(Rule{Name: "occ-high", Num: "occ", NumSrc: Value, Op: Above, Threshold: 1e18})

	for i := 0; i < 3; i++ { // warm-up: series list + histogram buffers
		ctr.Shard().Inc()
		h.Observe(0.004)
		p.Tick()
		clk.advance(1)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ctr.Shard().Inc()
		h.Observe(0.004)
		clk.advance(1)
		p.Tick()
	})
	if allocs != 0 {
		t.Fatalf("scrape tick: %v allocs/op, want 0", allocs)
	}
}

// TestDumpShape checks the JSON export structure and the ?last=N limit.
func TestDumpShape(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("x")
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 8)
	for i := 0; i < 5; i++ {
		ctr.Shard().Inc()
		p.Tick()
		clk.advance(1)
	}
	d := p.Dump(2)
	if d.Ticks != 5 {
		t.Fatalf("dump ticks = %d, want 5", d.Ticks)
	}
	var found bool
	for i := 1; i < len(d.Series); i++ {
		if d.Series[i-1].Name >= d.Series[i].Name {
			t.Fatalf("dump series unsorted: %q then %q", d.Series[i-1].Name, d.Series[i].Name)
		}
	}
	for _, s := range d.Series {
		if s.Name == "x" {
			found = true
			if len(s.Points) != 2 {
				t.Fatalf("series x has %d points, want last=2", len(s.Points))
			}
			if s.Points[1].Value != 5 {
				t.Fatalf("series x last value = %g, want 5", s.Points[1].Value)
			}
		}
	}
	if !found {
		t.Fatal("series x missing from dump")
	}
}

// mallocsDuring counts the heap allocations f makes. testing.AllocsPerRun
// cannot see a first call: it warms up with one of its own.
func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStartBuildsTheSeriesList: a started pipeline has paid for its rings and
// histogram buffers before its first tick, so no tick — the first included —
// allocates. Built lazily, the rings land one scrape interval into whatever
// the node is serving by then.
func TestStartBuildsTheSeriesList(t *testing.T) {
	reg := telemetry.NewRegistry()
	for _, name := range []string{"a", "b", "c", "d"} {
		reg.Counter("ctr." + name).Shard().Add(1)
		reg.Gauge("gauge." + name).Set(1)
	}
	reg.Histogram("hist", []float64{1, 2, 4}).Observe(3)
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 256)
	// MemStats are process-wide. On one P, a yield runs Start's goroutine up
	// to its select (whose first park allocates) before anything is counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stop := p.Start(time.Hour) // the ticker never fires; the test ticks
	defer stop()
	runtime.Gosched()

	for tick := 1; tick <= 2; tick++ {
		clk.advance(1)
		if n := mallocsDuring(p.Tick); n != 0 {
			t.Errorf("tick %d after Start made %d allocations, want 0", tick, n)
		}
	}
	if pts, ok := p.Series("hist.count"); !ok || len(pts) != 2 || pts[0].Value != 1 {
		t.Errorf("hist.count after two ticks = %+v (found %v), want two points of value 1", pts, ok)
	}

	// A metric registered after Start is picked up by the next tick.
	reg.Counter("late").Shard().Add(5)
	p.Tick()
	if pts, ok := p.Series("late"); !ok || len(pts) != 1 || pts[0].Value != 5 {
		t.Errorf("late series = %+v (found %v), want one point of value 5", pts, ok)
	}
}

// Series returns a chronological copy of one series' retained points.
func (p *Pipeline) Series(name string) ([]Point, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.byName[name]
	if !ok {
		return nil, false
	}
	return s.points(0), true
}
