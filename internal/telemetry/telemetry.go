// Package telemetry is the runtime observability substrate for the Duet
// dataplane and control plane: a metric registry of sharded-atomic counters,
// gauges and fixed-bucket histograms whose hot-path operations (Inc, Add,
// Set, Observe) perform zero allocations and are safe under the race
// detector, plus a sampled flight recorder (recorder.go) that captures
// per-packet pipeline events and control-plane transitions into a lock-free
// ring buffer.
//
// The paper's evaluation (Figures 11-14) is entirely about observing a live
// hybrid load balancer — latency timelines, VIP availability during failover
// and migration, table-programming delay — and a production control loop is
// only as good as its telemetry. The design constraints follow from the
// dataplane: the HMux/SMux Process paths forward packets with zero
// allocations, so instrumentation must too.
//
// Every type is nil-safe: methods on a nil *Registry, nil *Counter, nil
// *Gauge, nil *Histogram or zero CounterShard are no-ops costing one branch.
// Components therefore accept an optional registry and the uninstrumented
// configuration pays (almost) nothing.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// counterShards is the number of cache-line-padded cells a Counter stripes
// its value across. Components that own a hot path call Shard() once at
// setup to claim a dedicated cell, so concurrent writers (one per mux
// instance, say) never contend on the same cache line.
const counterShards = 8

// cell is one cache-line-padded counter slot. 64 bytes is the common cache
// line size on amd64/arm64; the padding prevents false sharing between
// adjacent shards.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing sharded-atomic counter.
type Counter struct {
	name   string
	shards [counterShards]cell
	next   atomic.Uint32 // round-robin shard assignment for Shard()
}

// Name returns the counter's registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Value sums all shards.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Shard claims a dedicated stripe of the counter, assigned round-robin.
// Hot-path owners (one per mux instance) hold a shard so their increments
// never share a cache line with another instance's. The zero CounterShard is
// a valid no-op.
func (c *Counter) Shard() CounterShard {
	if c == nil {
		return CounterShard{}
	}
	i := c.next.Add(1) % counterShards
	return CounterShard{v: &c.shards[i].v}
}

// CounterShard is a handle to one stripe of a Counter. It is a value type so
// embedding it in a component's telemetry block costs one pointer and no
// allocation.
type CounterShard struct {
	v *atomic.Uint64
}

// Inc adds one to the shard.
//
//duet:hotpath
func (s CounterShard) Inc() {
	if s.v == nil {
		return
	}
	s.v.Add(1)
}

// Add adds n to the shard. Adding zero touches no shared memory, so a run's
// flush adds the counts that did not move for free.
//
//duet:hotpath
func (s CounterShard) Add(n uint64) {
	if s.v == nil || n == 0 {
		return
	}
	s.v.Add(n)
}

// Gauge is an instantaneous value (table occupancy, connection count).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value loads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram. Bounds are upper bucket edges in
// ascending order; an implicit +Inf bucket catches the tail. Observe is
// allocation-free: a linear scan over the (small) bounds slice and one
// atomic add, plus a CAS loop folding the value into the running sum.
type Histogram struct {
	name   string
	bounds []float64       // immutable after construction
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomicFloat64
	count  atomic.Uint64
}

// atomicFloat64 is a float64 updated via CAS on its bit pattern.
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (f *atomicFloat64) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64frombits(old) + v
		if f.bits.CompareAndSwap(old, math.Float64bits(nw)) {
			return
		}
	}
}

func (f *atomicFloat64) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Name returns the histogram's registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one sample.
//
//duet:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a consistent-enough copy of a histogram's state for
// export (counts are loaded individually; a concurrent Observe may straddle
// the loads, which is acceptable for monitoring output).
type HistogramSnapshot struct {
	Bounds []float64 // upper edges; the final bucket is +Inf
	Counts []uint64  // len(Bounds)+1
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// SnapshotInto copies the histogram state into s, reusing s.Counts when its
// capacity suffices — the allocation-free variant of Snapshot for scrape
// loops that snapshot the same histograms every tick.
func (h *Histogram) SnapshotInto(s *HistogramSnapshot) {
	if h == nil {
		s.Bounds = nil
		s.Counts = s.Counts[:0]
		s.Sum = 0
		s.Count = 0
		return
	}
	s.Bounds = h.bounds
	if cap(s.Counts) < len(h.counts) {
		s.Counts = make([]uint64, len(h.counts))
	} else {
		s.Counts = s.Counts[:len(h.counts)]
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.load()
	s.Count = h.count.Load()
}

// Quantile estimates the p-quantile of everything the histogram has seen.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	return BucketQuantile(s.Bounds, s.Counts, s.Count, p)
}

// BucketQuantile is the repository's one quantile estimator over bucketed
// observations: the p-quantile (p in [0,1]) of total observations spread
// over counts (len(bounds)+1 buckets, the last one +Inf), by linear
// interpolation within the winning bucket. The +Inf bucket reports its
// lower edge, the last finite bound. It does not allocate, so the scrape
// tick calls it on window deltas and the fleet aggregator on counts merged
// across nodes.
func BucketQuantile(bounds []float64, counts []uint64, total uint64, p float64) float64 {
	if total == 0 {
		return 0
	}
	target := p * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if i >= len(bounds) { // +Inf bucket
			return lo
		}
		hi := bounds[i]
		frac := (target - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	if len(bounds) > 0 {
		return bounds[len(bounds)-1]
	}
	return 0
}

// Registry holds named metrics. Registration (Counter, Gauge, Histogram) is
// mutex-guarded and idempotent — call it at setup, keep the returned pointer
// for the hot path. A nil *Registry hands out nil metrics, which are no-ops.
type Registry struct {
	mu      sync.Mutex
	ctrs    map[string]*Counter
	gauges  map[string]*Gauge
	hists   map[string]*Histogram
	version atomic.Uint64 // bumped whenever a new metric is registered
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{name: name}
		r.ctrs[name] = c
		r.version.Add(1)
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
		r.version.Add(1)
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket bounds on first use (later calls reuse the existing buckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{
			name:   name,
			bounds: b,
			counts: make([]atomic.Uint64, len(b)+1),
		}
		r.hists[name] = h
		r.version.Add(1)
	}
	return h
}

// Version returns a counter that increments whenever a metric is first
// registered. Scrapers cache the metric lists and rebuild them only when the
// version moves, so a steady-state scrape performs no allocation (the list
// methods below allocate on every call).
func (r *Registry) Version() uint64 {
	if r == nil {
		return 0
	}
	return r.version.Load()
}

// Counters returns the registered counters sorted by name.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	return r.counters()
}

// Gauges returns the registered gauges sorted by name.
func (r *Registry) Gauges() []*Gauge {
	if r == nil {
		return nil
	}
	return r.gaugeList()
}

// Histograms returns the registered histograms sorted by name.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	return r.histList()
}

// counters returns the registered counters sorted by name.
func (r *Registry) counters() []*Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Counter, 0, len(r.ctrs))
	for _, c := range r.ctrs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *Registry) gaugeList() []*Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *Registry) histList() []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
