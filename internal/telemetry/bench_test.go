package telemetry

import "testing"

// BenchmarkTelemetryHotPath measures the per-operation cost of every
// instrument the dataplane touches per packet. The repo's tier-1 check runs
// this with -benchmem; allocs/op must stay 0 (TestZeroAlloc enforces the
// same bound as a plain test).
func BenchmarkTelemetryHotPath(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	sh := c.Shard()
	g := r.Gauge("bench.gauge")
	h := r.Histogram("bench.hist", []float64{1e-6, 1e-5, 1e-4, 1e-3})
	rec := NewRecorder(4096)
	rec.SetSampleEvery(64)

	b.Run("shard-inc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh.Inc()
		}
	})
	b.Run("shard-inc-parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			mine := c.Shard()
			for pb.Next() {
				mine.Inc()
			}
		})
	})
	b.Run("gauge-set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(int64(i))
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(1e-5)
		}
	})
	b.Run("sampled-record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rec.Sample() {
				rec.Record(KindEncap, 1, 2, 3, 4)
			}
		}
	})
	b.Run("record-always", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.RecordAt(1.5, KindEncap, 1, 2, 3, 4)
		}
	})
	b.Run("disabled-nil", func(b *testing.B) {
		b.ReportAllocs()
		ns := CounterShard{}
		var nr *Recorder
		for i := 0; i < b.N; i++ {
			ns.Inc()
			if nr.Sample() {
				nr.Record(KindEncap, 0, 0, 0, 0)
			}
		}
	})
}
