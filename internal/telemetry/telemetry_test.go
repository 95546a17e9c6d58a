package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	if r.Counter("a.b") != c {
		t.Fatal("Counter not idempotent")
	}
	s1, s2 := c.Shard(), c.Shard()
	s1.Inc()
	s2.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value over two shards = %d, want 3", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c.Value() != 0 {
		t.Fatal("nil counter has value")
	}
	c.Shard().Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h", []float64{1}).Observe(2)
	var rec *Recorder
	if rec.Sample() {
		t.Fatal("nil recorder samples")
	}
	rec.Record(KindPacketIn, 0, 0, 0, 0)
	rec.RecordAt(1, KindDrop, 0, 0, 0, 0)
	if rec.Snapshot() != nil {
		t.Fatal("nil recorder snapshot non-nil")
	}
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("conns")
	g.Set(10)
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewRegistry().Histogram("lat", []float64{0.1, 0.2, 0.4})
	for _, v := range []float64{0.05, 0.15, 0.15, 0.3, 0.9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	want := []uint64{1, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("Counts[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Sum < 1.54 || s.Sum > 1.56 {
		t.Fatalf("Sum = %g, want 1.55", s.Sum)
	}
	q := s.Quantile(0.5)
	if q < 0.1 || q > 0.2 {
		t.Fatalf("p50 = %g, want in (0.1, 0.2]", q)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	rec := NewRecorder(8)
	rec.SetClock(func() float64 { return 42 })
	rec.Record(KindEncap, 3, 0x0a000001, 0x64000001, 7)
	evs := rec.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != KindEncap || e.Node != 3 || e.A != 0x0a000001 || e.B != 0x64000001 || e.Aux != 7 || e.Time != 42 {
		t.Fatalf("bad event: %+v", e)
	}
	if !strings.Contains(e.String(), "10.0.0.1") {
		t.Fatalf("String() = %q, want dotted-quad VIP", e.String())
	}
}

func TestRecorderWrap(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.RecordAt(float64(i), KindPacketIn, 0, uint32(i), 0, 0)
	}
	evs := rec.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (ring size)", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if rec.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", rec.Recorded())
	}
}

func TestSampling(t *testing.T) {
	rec := NewRecorder(1024)
	rec.SetSampleEvery(8)
	hits := 0
	for i := 0; i < 800; i++ {
		if rec.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("sampled %d of 800 at 1-in-8, want 100", hits)
	}
	rec.SetSampleEvery(1)
	if !rec.Sample() {
		t.Fatal("SampleEvery(1) must sample every packet")
	}

	// A run's decisions are the ones as many Sample calls would have taken,
	// from wherever the counter stands, and the next run or call continues
	// from where the run left it.
	runs, calls := NewRecorder(16), NewRecorder(16)
	for _, r := range []*Recorder{runs, calls} {
		r.SetSampleEvery(16)
		for i := 0; i < 5; i++ {
			r.Sample()
		}
	}
	for _, n := range []int{1, 7, 16, 40, 256} {
		s := runs.SampleRun(n)
		for i := 0; i < n; i++ {
			if got, want := s.Sampled(i), calls.Sample(); got != want {
				t.Fatalf("run of %d, packet %d: sampled %v, Sample says %v", n, i, got, want)
			}
		}
	}
	if runs.Sample() != calls.Sample() {
		t.Fatal("a Sample call after the runs disagrees")
	}
	var nr *Recorder
	if nr.SampleRun(8).Sampled(0) || (Samples{}).Sampled(0) {
		t.Fatal("a nil recorder's run, and the zero Samples, sample nothing")
	}
}

// TestConcurrency exercises every hot-path operation from many goroutines
// while a reader snapshots — meaningful under -race.
func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	rec := NewRecorder(64)
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2, 4})
	var wg sync.WaitGroup
	const workers, iters = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sh := c.Shard()
			for i := 0; i < iters; i++ {
				sh.Inc()
				g.Set(int64(i))
				h.Observe(float64(i % 5))
				if rec.Sample() {
					rec.Record(KindPacketIn, uint32(id), uint32(i), 0, 0)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			rec.Snapshot()
			c.Value()
			h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := h.Snapshot().Count; got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestZeroAlloc enforces the zero-allocation contract of every hot-path
// operation. This is the tentpole's guarantee: instrumentation must cost
// nothing on the packet path.
func TestZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	sh := c.Shard()
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2, 4, 8})
	rec := NewRecorder(256)
	rec.SetSampleEvery(4)

	cases := []struct {
		name string
		fn   func()
	}{
		{"CounterShard.Inc", func() { sh.Inc() }},
		{"Gauge.Set", func() { g.Set(3) }},
		{"Histogram.Observe", func() { h.Observe(3.5) }},
		{"Recorder.Sample", func() { rec.Sample() }},
		{"Recorder.SampleRun", func() { rec.SampleRun(256).Sampled(3) }},
		{"Recorder.Record", func() { rec.Record(KindEncap, 1, 2, 3, 4) }},
		{"Recorder.RecordAt", func() { rec.RecordAt(1, KindDrop, 1, 2, 3, 4) }},
		{"nil ops", func() {
			var nc *Counter
			nc.Shard().Inc()
			CounterShard{}.Inc()
			var nr *Recorder
			nr.Sample()
			nr.Record(KindEncap, 0, 0, 0, 0)
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestExporters(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Shard().Add(2)
	r.Counter("a.count").Shard().Inc()
	r.Gauge("g.conns").Set(9)
	r.Histogram("h.lat", []float64{1, 2}).Observe(1.5)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	if !strings.Contains(out, "a.count") || !strings.Contains(out, "g.conns") || !strings.Contains(out, "h.lat") {
		t.Fatalf("text export missing metrics:\n%s", out)
	}
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatal("counters not sorted by name")
	}

	var trace bytes.Buffer
	rec := NewRecorder(8)
	rec.RecordAt(0.5, KindBGPWithdraw, 2, 0x0a000001, 0, 32)
	if err := rec.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "bgp-withdraw") || !strings.Contains(trace.String(), "10.0.0.1/32") {
		t.Fatalf("trace output wrong: %q", trace.String())
	}
}

// TestTableProgramString: a table-program event reads its op from B, as
// both producers write it, and a DIP removal names the DIP it held in Aux.
func TestTableProgramString(t *testing.T) {
	for _, c := range []struct {
		b    uint32
		aux  uint64
		want string
	}{
		{0, 0, "vip=10.0.0.1 op=0"},
		{1, 0, "vip=10.0.0.1 op=1"},
		{2, 0x64000002, "vip=10.0.0.1 op=2 dip=100.0.0.2"},
	} {
		e := Event{Kind: KindTableProgram, Node: 3, A: 0x0a000001, B: c.b, Aux: c.aux}
		if got := e.String(); !strings.HasSuffix(got, c.want) {
			t.Errorf("String() = %q, want it to end in %q", got, c.want)
		}
	}
}

func TestDropReasonStrings(t *testing.T) {
	for d := DropNone; d <= DropNoWireRoute; d++ {
		if d.String() == "unknown" {
			t.Fatalf("DropReason %d has no name", d)
		}
	}
	if DropReason(200).String() != "unknown" {
		t.Fatal("out-of-range DropReason must be unknown")
	}
}

// TestRegistryVersion checks the registration counter the obs scraper uses
// to cache its series list: it bumps only when a new metric appears.
func TestRegistryVersion(t *testing.T) {
	var nilReg *Registry
	if nilReg.Version() != 0 {
		t.Fatal("nil registry version must be 0")
	}
	r := NewRegistry()
	v0 := r.Version()
	r.Counter("a")
	v1 := r.Version()
	if v1 == v0 {
		t.Fatal("registering a counter must bump the version")
	}
	r.Counter("a").Shard().Inc() // existing metric: no bump
	r.Gauge("g")
	r.Histogram("h", []float64{1, 2})
	v2 := r.Version()
	if v2 != v1+2 {
		t.Fatalf("version = %d after gauge+histogram, want %d", v2, v1+2)
	}
	r.Counter("a")
	if r.Version() != v2 {
		t.Fatal("re-fetching an existing metric must not bump the version")
	}
}

// TestHistogramSnapshotInto checks the allocation-free snapshot reuse path.
func TestHistogramSnapshotInto(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	var s HistogramSnapshot
	h.SnapshotInto(&s) // first call allocates the counts buffer
	if s.Count != 2 || len(s.Counts) != 3 || s.Counts[0] != 1 || s.Counts[1] != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	h.Observe(100)
	allocs := testing.AllocsPerRun(100, func() {
		h.SnapshotInto(&s)
	})
	if allocs != 0 {
		t.Fatalf("SnapshotInto reuse: %v allocs/op, want 0", allocs)
	}
	if s.Count != 3 || s.Counts[2] != 1 {
		t.Fatalf("snapshot after reuse = %+v", s)
	}
	var nilH *Histogram
	nilH.SnapshotInto(&s)
	if s.Count != 0 {
		t.Fatal("nil histogram must reset the snapshot")
	}
}
