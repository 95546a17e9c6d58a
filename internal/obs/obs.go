// Package obs is the always-on observability plane layered on
// internal/telemetry: a scrape pipeline that snapshots the metric registry on
// a fixed interval into per-metric fixed-size ring buffers (values, deltas,
// rates, and per-window histogram quantiles), an SLO watchdog engine
// (rules.go) evaluated on every scrape with paper-grounded default rules, and
// an HTTP exposition server (http.go) serving Prometheus text format, JSON
// time series, the flight-recorder trace, and watchdog-driven health.
//
// Duet's evaluation is entirely about operational signals over time — VIP
// availability through failover and migration (Figure 12), SMux latency
// inflation under load (Figure 1), switch table occupancy against the
// 16K/4K/512 limits (§4.1) — none of which a point-in-time counter dump can
// answer. The pipeline turns the registry's monotone counters into windows:
// each tick t_i stores, per series, the instantaneous value, the delta since
// t_{i-1}, and the rate delta/(t_i - t_{i-1}).
//
// The scrape tick performs zero steady-state allocations after warm-up: the
// series list is cached and rebuilt only when Registry.Version() moves,
// histogram snapshots reuse their buffers via SnapshotInto, and ring writes
// are in-place. The clock is injectable, so the testbed drives the pipeline
// on virtual time and watchdog tests are deterministic.
package obs

import (
	"sort"
	"strings"
	"sync"
	"time"

	"duet/internal/clock"
	"duet/internal/telemetry"
)

// Config sizes a Pipeline.
type Config struct {
	// Registry is the metric source (required).
	Registry *telemetry.Registry
	// Recorder, if set, receives a KindSLOAlert event on every watchdog
	// transition and backs the /trace endpoint.
	Recorder *telemetry.Recorder
	// Windows is the ring length per series (default 128).
	Windows int
	// Now is the scrape clock in seconds (default: wall time since New).
	// Inject the testbed's virtual clock for deterministic tests.
	Now func() float64
}

// alertLog is the alert ring's capacity: Alerts returns the newest this many.
const alertLog = 256

// Point is one scrape observation of one series.
type Point struct {
	Time  float64 `json:"t"`
	Value float64 `json:"v"`
	Delta float64 `json:"d"`
	Rate  float64 `json:"r"`
}

// series is one ring-buffered time series. Counter and gauge series read the
// metric directly; histogram-derived series (<name>.count, <name>.p50,
// <name>.p99) read the shared histState computed once per tick.
type series struct {
	name string
	kind string // "counter", "gauge", "quantile"
	ctr  *telemetry.Counter
	gg   *telemetry.Gauge
	hist *histState
	q    float64 // quantile point for kind "quantile"; -1 = cumulative count

	ring    []Point
	head, n int
	prev    float64
	hasPrev bool
}

// last returns the most recent point (valid only when n > 0).
func (s *series) last() Point {
	return s.ring[(s.head+len(s.ring)-1)%len(s.ring)]
}

// observe appends one scrape point. dt is the time since the previous tick
// (0 on the first tick: delta/rate warm up one window).
func (s *series) observe(now, dt float64) {
	var v float64
	switch {
	case s.ctr != nil:
		v = float64(s.ctr.Value())
	case s.gg != nil:
		v = float64(s.gg.Value())
	case s.q >= 0:
		v = telemetry.BucketQuantile(s.hist.snap.Bounds, s.hist.delta, s.hist.total, s.q)
	default:
		v = float64(s.hist.snap.Count)
	}
	var d, r float64
	if s.hasPrev && s.kind != "quantile" {
		d = v - s.prev
		if dt > 0 {
			r = d / dt
		}
	}
	s.prev = v
	s.hasPrev = true
	s.ring[s.head] = Point{Time: now, Value: v, Delta: d, Rate: r}
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
}

// histState holds the per-tick window view of one histogram, shared by its
// derived series. All buffers are reused across ticks.
type histState struct {
	h     *telemetry.Histogram
	snap  telemetry.HistogramSnapshot
	prev  []uint64 // cumulative counts at the previous tick
	delta []uint64 // this window's distribution
	total uint64   // sum(delta)
}

// newHistState sizes every per-tick buffer up front (a histogram's bucket
// count never changes), so the first update allocates as little as the rest.
func newHistState(h *telemetry.Histogram) *histState {
	hs := &histState{h: h}
	h.SnapshotInto(&hs.snap)
	hs.prev = make([]uint64, len(hs.snap.Counts))
	hs.delta = make([]uint64, len(hs.snap.Counts))
	return hs
}

// update snapshots the histogram and computes the window distribution.
func (hs *histState) update() {
	hs.h.SnapshotInto(&hs.snap)
	hs.total = 0
	for i, c := range hs.snap.Counts {
		hs.delta[i] = c - hs.prev[i]
		hs.total += hs.delta[i]
		hs.prev[i] = c
	}
}

// Pipeline is the scrape pipeline plus watchdog state. Tick (or the Start
// goroutine) is the only writer; HTTP readers and accessors take the same
// mutex, so a reader observes complete ticks only.
type Pipeline struct {
	cfg Config

	mu         sync.Mutex
	regVersion uint64
	series     []*series
	byName     map[string]*series
	hists      []*histState
	collectors []func()
	rules      []*ruleState
	alerts     [alertLog]Alert
	alertHead  int
	alertN     int
	ticks      uint64
	lastTime   float64

	scrapes telemetry.CounterShard
}

// New builds a pipeline over cfg.Registry. The pipeline registers its own
// obs.scrape.ticks counter, so the scraper is visible in its own output.
func New(cfg Config) *Pipeline {
	if cfg.Windows <= 0 {
		cfg.Windows = 128
	}
	if cfg.Now == nil {
		cfg.Now = clock.Wall()
	}
	p := &Pipeline{
		cfg:    cfg,
		byName: make(map[string]*series),
	}
	p.scrapes = cfg.Registry.Counter("obs.scrape.ticks").Shard()
	return p
}

// Registry returns the pipeline's metric source.
func (p *Pipeline) Registry() *telemetry.Registry { return p.cfg.Registry }

// Recorder returns the pipeline's flight recorder (may be nil).
func (p *Pipeline) Recorder() *telemetry.Recorder { return p.cfg.Recorder }

// AddCollector registers a function run at the start of every tick, before
// the registry is read — the hook for components that publish point-in-time
// gauges (core.Cluster.Collect sets table occupancy and SMux capacity).
func (p *Pipeline) AddCollector(f func()) {
	if f == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.collectors = append(p.collectors, f)
}

// Tick runs one scrape: collectors, registry snapshot into the rings, then
// watchdog evaluation. Zero allocations in steady state (after the series
// list has stabilized and histogram buffers are warm).
func (p *Pipeline) Tick() {
	if p == nil || p.cfg.Registry == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.cfg.Now()
	p.scrapes.Inc()
	for _, f := range p.collectors {
		f()
	}
	p.syncSeriesLocked()
	var dt float64
	if p.ticks > 0 {
		dt = now - p.lastTime
	}
	for _, hs := range p.hists {
		hs.update()
	}
	for _, s := range p.series {
		s.observe(now, dt)
	}
	p.evalRulesLocked(now)
	p.lastTime = now
	p.ticks++
}

// Start runs Tick on a real ticker until the returned stop function is
// called. Tests and the testbed call Tick directly on virtual time instead.
//
// The series list is built here, before the first tick is due: a ring per
// series is the pipeline's one large allocation (megabytes over a fleet), and
// a node should pay it while it starts, not one interval into whatever it is
// serving by then. Metrics registered later are picked up by the next Tick.
func (p *Pipeline) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	p.mu.Lock()
	p.syncSeriesLocked()
	p.mu.Unlock()
	done := make(chan struct{})
	var once sync.Once
	t := time.NewTicker(interval) //duet:allow noclock real scrape cadence; virtual-time callers drive Tick directly
	go func() {
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p.Tick()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// syncSeriesLocked refreshes the cached series list if the registry has
// gained metrics since the last look. Existing series keep their rings; new
// metrics get fresh ones. Rules re-resolve their series on the next
// evaluation.
func (p *Pipeline) syncSeriesLocked() {
	v := p.cfg.Registry.Version()
	if v == p.regVersion {
		return
	}
	for _, c := range p.cfg.Registry.Counters() {
		if _, ok := p.byName[c.Name()]; ok {
			continue
		}
		p.addLocked(&series{name: c.Name(), kind: "counter", ctr: c})
	}
	for _, g := range p.cfg.Registry.Gauges() {
		if _, ok := p.byName[g.Name()]; ok {
			continue
		}
		p.addLocked(&series{name: g.Name(), kind: "gauge", gg: g})
	}
	for _, h := range p.cfg.Registry.Histograms() {
		if _, ok := p.byName[h.Name()+".count"]; ok {
			continue
		}
		hs := newHistState(h)
		p.hists = append(p.hists, hs)
		p.addLocked(&series{name: h.Name() + ".count", kind: "counter", hist: hs, q: -1})
		p.addLocked(&series{name: h.Name() + ".p50", kind: "quantile", hist: hs, q: 0.5})
		p.addLocked(&series{name: h.Name() + ".p99", kind: "quantile", hist: hs, q: 0.99})
	}
	for _, rs := range p.rules {
		rs.num, rs.den = nil, nil
	}
	p.regVersion = v
}

func (p *Pipeline) addLocked(s *series) {
	s.ring = make([]Point, p.cfg.Windows)
	p.series = append(p.series, s)
	p.byName[s.name] = s
}

// points copies the newest lastN points (0 = all retained), oldest first.
// Caller holds p.mu.
func (s *series) points(lastN int) []Point {
	n := s.n
	if lastN > 0 && lastN < n {
		n = lastN
	}
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		out[i] = s.ring[(s.head+len(s.ring)-n+i)%len(s.ring)]
	}
	return out
}

// SeriesDump is one series in a JSON export.
type SeriesDump struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// TimeSeriesDump is the /timeseries payload.
type TimeSeriesDump struct {
	Now    float64      `json:"now"`
	Ticks  uint64       `json:"ticks"`
	Series []SeriesDump `json:"series"`
}

// Dump exports every series' newest lastN points (0 = all retained), sorted
// by name.
func (p *Pipeline) Dump(lastN int) TimeSeriesDump {
	return p.DumpWith(DumpOptions{Last: lastN})
}

// DumpOptions filters a time-series export.
type DumpOptions struct {
	// Last keeps only each series' newest N points (0 = all retained).
	Last int
	// Window keeps only points newer than now−Window seconds on the scrape
	// clock (0 = no time filter). Composes with Last: the window applies
	// to the points Last selected.
	Window float64
	// Quantile restricts the export to histogram-derived quantile series
	// ("p50" or "p99"; empty = all series).
	Quantile string
}

// DumpWith exports the rings with filtering, sorted by name.
func (p *Pipeline) DumpWith(opt DumpOptions) TimeSeriesDump {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := TimeSeriesDump{Now: p.lastTime, Ticks: p.ticks}
	d.Series = make([]SeriesDump, 0, len(p.series))
	cutoff := 0.0
	if opt.Window > 0 {
		cutoff = p.lastTime - opt.Window
	}
	for _, s := range p.series {
		if opt.Quantile != "" {
			if s.kind != "quantile" || !strings.HasSuffix(s.name, "."+opt.Quantile) {
				continue
			}
		}
		pts := s.points(opt.Last)
		if opt.Window > 0 {
			keep := pts[:0]
			for _, pt := range pts {
				if pt.Time >= cutoff {
					keep = append(keep, pt)
				}
			}
			pts = keep
		}
		d.Series = append(d.Series, SeriesDump{Name: s.name, Kind: s.kind, Points: pts})
	}
	sort.Slice(d.Series, func(i, j int) bool { return d.Series[i].Name < d.Series[j].Name })
	return d
}
