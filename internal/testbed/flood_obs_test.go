package testbed

import (
	"testing"

	"duet/internal/packet"
	"duet/internal/telemetry"
)

// floodTraffic builds n packets aimed at one VIP with distinct flows.
func floodTraffic(vip packet.Addr, n int, seed uint32) [][]byte {
	pkts := make([][]byte, n)
	for i := 0; i < n; i++ {
		seq := seed + uint32(i)
		pkts[i] = packet.BuildTCP(packet.FiveTuple{
			Src:     packet.AddrFrom4(30, byte(seq>>16), byte(seq>>8), byte(seq)),
			Dst:     vip,
			SrcPort: uint16(1024 + seq%50000),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}, packet.TCPSyn, nil)
	}
	return pkts
}

// TestWatchdogFloodFailoverOverload is the deterministic end-to-end watchdog
// scenario: a flood cluster scraped on a virtual clock, with an injected
// switch failure (the Figure 12 pre-convergence blackhole) followed by an
// SMux overload. The availability and headroom watchdogs — and only those —
// must fire and resolve at the expected scrape ticks.
func TestWatchdogFloodFailoverOverload(t *testing.T) {
	// 3 SMuxes × 1000 pps = 3000 pps aggregate capacity; the 80% headroom
	// threshold sits at 2400 pps.
	f, err := NewFlood(FloodConfig{SMuxCapacityPPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Sample the per-packet event stream so the flood does not wrap the
	// flight-recorder ring past the (always-recorded) watchdog transitions.
	_, rec := f.Cluster.Telemetry()
	rec.SetSampleEvery(64)
	var now float64
	p := f.Observe(32, func() float64 { return now })

	deliver := func(pkts [][]byte) (failed int) {
		for _, pkt := range pkts {
			if _, err := f.Cluster.Deliver(pkt); err != nil {
				failed++
			}
		}
		return failed
	}
	// moderate: 50 flows to every VIP. Only VIPs 6 and 7 are SMux-served
	// (HMuxFraction 0.75 of 8), so the steady SMux rate is ~100 pps.
	moderate := func(seed uint32) (failed int) {
		for _, vip := range f.VIPs {
			failed += deliver(floodTraffic(vip, 50, seed))
		}
		return failed
	}

	// t=0: warm-up scrape (deltas and rates are zero by construction).
	moderate(0)
	p.Tick()
	if !p.Healthy() || len(p.Alerts()) != 0 {
		t.Fatalf("warm-up: healthy=%v alerts=%+v", p.Healthy(), p.Alerts())
	}

	// t=1: steady state under moderate traffic.
	now = 1
	if failed := moderate(1 << 16); failed != 0 {
		t.Fatalf("steady state: %d deliveries failed", failed)
	}
	p.Tick()
	if !p.Healthy() || len(p.Alerts()) != 0 {
		t.Fatalf("steady state: healthy=%v alerts=%+v", p.Healthy(), p.Alerts())
	}

	// Kill VIP 0's home switch; the fabric still carries its /32 toward the
	// dead switch, so its traffic blackholes this window.
	if err := f.InjectBlackhole(f.VIPs[0]); err != nil {
		t.Fatal(err)
	}
	now = 2
	failed := moderate(2 << 16)
	if failed != 50 {
		t.Fatalf("blackhole window: %d deliveries failed, want exactly VIP 0's 50", failed)
	}
	p.Tick() // error fraction 50/400 = 12.5% > 1% → availability fires
	if p.Healthy() {
		t.Fatal("availability watchdog did not fire during the blackhole window")
	}

	// Routing converges; then a flood at the SMux-served VIPs exceeds the
	// 2400 pps headroom threshold within the next window.
	f.Heal(f.VIPs[0])
	now = 3
	if failed := deliver(floodTraffic(f.VIPs[6], 2500, 3<<16)); failed != 0 {
		t.Fatalf("overload window: %d deliveries failed", failed)
	}
	if failed := deliver(floodTraffic(f.VIPs[7], 2500, 4<<16)); failed != 0 {
		t.Fatalf("overload window: %d deliveries failed", failed)
	}
	p.Tick() // smux rate 5000/s vs 3000 capacity → headroom fires; availability resolves
	if p.Healthy() {
		t.Fatal("headroom watchdog did not fire during the overload window")
	}

	// t=4: load drains; everything resolves.
	now = 4
	if failed := deliver(floodTraffic(f.VIPs[1], 50, 5<<16)); failed != 0 {
		t.Fatalf("drain window: %d deliveries failed", failed)
	}
	p.Tick()
	if !p.Healthy() {
		t.Fatalf("watchdogs still firing after drain: %+v", p.Status())
	}

	// The full transition log: exactly these four, at exactly these ticks.
	want := []struct {
		rule   string
		firing bool
		time   float64
	}{
		{"vip-availability", true, 2},
		{"vip-availability", false, 3},
		{"smux-headroom", true, 3},
		{"smux-headroom", false, 4},
	}
	alerts := p.Alerts()
	if len(alerts) != len(want) {
		t.Fatalf("alert log = %+v, want %d transitions", alerts, len(want))
	}
	for i, w := range want {
		a := alerts[i]
		if a.Rule != w.rule || a.Firing != w.firing || a.Time != w.time {
			t.Fatalf("alert %d = %+v, want %s firing=%v at t=%g", i, a, w.rule, w.firing, w.time)
		}
	}
	if alerts[0].Value != 0.125 {
		t.Fatalf("availability firing value = %g, want 0.125 (50 of 400)", alerts[0].Value)
	}

	// Every transition is also a flight-recorder event.
	sloEvents := 0
	for _, e := range rec.Snapshot() {
		if e.Kind == telemetry.KindSLOAlert {
			sloEvents++
		}
	}
	if sloEvents != len(want) {
		t.Fatalf("recorder has %d slo-alert events, want %d", sloEvents, len(want))
	}
}
