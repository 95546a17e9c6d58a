package latmodel

import (
	"math"
	"math/rand"
	"testing"

	"duet/internal/metrics"
)

func TestSMuxNoLoadCalibration(t *testing.T) {
	m := DefaultSMuxModel()
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = m.SampleLatency(rng, 0)
	}
	med := metrics.Quantile(samples, 0.5)
	p90 := metrics.Quantile(samples, 0.9)
	if math.Abs(med-SMuxBaseMedian)/SMuxBaseMedian > 0.05 {
		t.Fatalf("no-load median = %.0fµs, want ~196µs", med*1e6)
	}
	if math.Abs(p90-SMuxBaseP90)/SMuxBaseP90 > 0.10 {
		t.Fatalf("no-load p90 = %.0fµs, want ~1000µs", p90*1e6)
	}
}

func TestSMuxLatencyMonotoneInLoad(t *testing.T) {
	m := DefaultSMuxModel()
	prev := 0.0
	for _, pps := range []float64{0, 100e3, 200e3, 250e3, 290e3, 300e3, 400e3, 450e3} {
		lat := m.MedianLatency(pps)
		if lat < prev {
			t.Fatalf("latency decreased at %v pps: %v < %v", pps, lat, prev)
		}
		prev = lat
	}
	// Paper Figure 1a: at/beyond 300K pps latency explodes (queue buildup).
	if m.MedianLatency(400e3) < 10e-3 {
		t.Fatalf("overloaded latency %.1fms, want ≥10ms", m.MedianLatency(400e3)*1e3)
	}
	// Below 200K pps the median stays ~sub-millisecond.
	if m.MedianLatency(200e3) > 1e-3 {
		t.Fatalf("200K pps median %.0fµs, want <1ms", m.MedianLatency(200e3)*1e6)
	}
}

func TestSMuxCPUPercent(t *testing.T) {
	m := DefaultSMuxModel()
	cases := []struct {
		pps  float64
		want float64
	}{
		{0, 0},
		{150e3, 50},
		{300e3, 100},
		{450e3, 100}, // capped (paper Fig 1b: 100% at 300K+)
	}
	for _, c := range cases {
		if got := m.CPUPercent(c.pps); math.Abs(got-c.want) > 0.01 {
			t.Errorf("CPUPercent(%v) = %v, want %v", c.pps, got, c.want)
		}
	}
}

func TestHMuxLatencyRateIndependent(t *testing.T) {
	h := DefaultHMuxModel()
	rng := rand.New(rand.NewSource(2))
	low := h.SampleLatency(rng, 1e9)
	high := h.SampleLatency(rng, 9e9)
	if low > 10e-6 || high > 10e-6 {
		t.Fatalf("HMux latency should be microseconds: %v %v", low, high)
	}
	// Past line rate, buffering appears.
	over := h.SampleLatency(rng, 11e9)
	if over < 100e-6 {
		t.Fatalf("overloaded HMux latency %v, want buffering delay", over)
	}
}

// TestTenXLatencyGap is the headline claim: HMux latency is >10x lower than
// SMux latency at typical operating points.
func TestTenXLatencyGap(t *testing.T) {
	m := DefaultSMuxModel()
	h := DefaultHMuxModel()
	smux := m.MedianLatency(100e3)
	if smux/h.Latency < 10 {
		t.Fatalf("SMux/HMux latency ratio = %.1f, want ≥10", smux/h.Latency)
	}
}

func TestSampleRTTIncludesBase(t *testing.T) {
	m := DefaultSMuxModel()
	h := DefaultHMuxModel()
	rng := rand.New(rand.NewSource(3))
	if m.SampleRTT(rng, 0) < BaseRTT {
		t.Fatal("SMux RTT below base RTT")
	}
	if h.SampleRTT(rng, 0) < BaseRTT {
		t.Fatal("HMux RTT below base RTT")
	}
}

func TestCost(t *testing.T) {
	// §1: "over 4000 SMuxes, costing over USD 10 million".
	if Cost(4000) < 10e6 {
		t.Fatalf("4000 SMuxes cost $%.0f, want ≥$10M", Cost(4000))
	}
	if Cost(0) != 0 {
		t.Fatal("zero SMuxes should be free")
	}
}

func TestQueueDelayCapped(t *testing.T) {
	m := DefaultSMuxModel()
	if d := m.QueueDelay(10 * m.CapacityPPS); d != m.MaxQueue {
		t.Fatalf("overload delay %v, want cap %v", d, m.MaxQueue)
	}
	if d := m.QueueDelay(0); d != 0 {
		t.Fatalf("no-load queue delay %v, want 0", d)
	}
}
