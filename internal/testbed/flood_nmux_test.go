package testbed

import (
	"sync"
	"testing"

	"duet/internal/assign"
	"duet/internal/controller"
	"duet/internal/core"
	"duet/internal/packet"
	"duet/internal/service"
)

// nmuxFlood builds the three-tier harness: 8 VIPs, 4 on HMuxes, 2 on the NIC
// tier (VIPs 4 and 5), 2 on the SMux backstop.
func nmuxFlood(t testing.TB, tableSize int) *Flood {
	t.Helper()
	f, err := NewFlood(FloodConfig{
		NumVIPs:       8,
		DIPsPerVIP:    4,
		HMuxFraction:  0.5,
		NMuxTableSize: tableSize,
		NMuxFraction:  0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFloodNMuxServesTier sanity-checks the harness wiring: the NIC-fraction
// VIPs deliver through the nmux hop and the rest do not.
func TestFloodNMuxServesTier(t *testing.T) {
	f := nmuxFlood(t, 256)
	c := f.Cluster
	for i, vip := range f.VIPs {
		d, err := c.Deliver(floodTraffic(vip, 1, uint32(i)<<16)[0])
		if err != nil {
			t.Fatal(err)
		}
		wantNMux := i == 4 || i == 5
		if got := d.Hops()[0].Kind == "nmux"; got != wantNMux {
			t.Fatalf("VIP %d first hop %s, want nmux=%v", i, d.Hops()[0].Kind, wantNMux)
		}
	}
}

// TestWatchdogNMuxOccupancy is the deterministic NIC-tier occupancy scenario:
// a small match table fills with pinned flow entries until the watchdog
// crosses the 90% threshold, then withdrawing the tier's VIPs (dropping their
// wildcard and flow entries) resolves it.
func TestWatchdogNMuxOccupancy(t *testing.T) {
	// Table 64 per host: 2 NIC VIPs × (1 + 4 DIPs) = 10 wildcard entries, so
	// the 0.9 threshold (57.6 entries) needs 48+ pinned flows on some host.
	f := nmuxFlood(t, 64)
	var now float64
	p := f.Observe(32, func() float64 { return now })

	deliver := func(vip packet.Addr, n int, seed uint32) {
		for _, pkt := range floodTraffic(vip, n, seed) {
			if _, err := f.Cluster.Deliver(pkt); err != nil {
				t.Fatalf("deliver: %v", err)
			}
		}
	}

	// t=0: warm-up — a handful of flows keeps every table well under 90%.
	deliver(f.VIPs[4], 10, 0)
	p.Tick()
	if !p.Healthy() || len(p.Alerts()) != 0 {
		t.Fatalf("warm-up: healthy=%v alerts=%+v", p.Healthy(), p.Alerts())
	}

	// t=1: flow churn floods the NIC tier. 300 distinct flows per NIC VIP
	// saturate every host's flow budget (54 slots past the wildcards), so
	// used_max/cap hits 64/64; the overflow is served stateless, not dropped.
	now = 1
	deliver(f.VIPs[4], 300, 1<<16)
	deliver(f.VIPs[5], 300, 2<<16)
	p.Tick()
	if p.Healthy() {
		t.Fatalf("occupancy watchdog did not fire: %+v", p.Status())
	}

	// t=2: the controller reacts by withdrawing the NIC tier's VIPs — their
	// wildcard cost and pinned flows are released and occupancy collapses.
	if err := f.Cluster.Place(core.Target{Addr: f.VIPs[4]}); err != nil {
		t.Fatal(err)
	}
	if err := f.Cluster.Place(core.Target{Addr: f.VIPs[5]}); err != nil {
		t.Fatal(err)
	}
	now = 2
	deliver(f.VIPs[4], 10, 3<<16) // now SMux-served
	p.Tick()
	if !p.Healthy() {
		t.Fatalf("watchdog still firing after withdrawal: %+v", p.Status())
	}

	alerts := p.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alert log = %+v, want fire + resolve", alerts)
	}
	if alerts[0].Rule != "nmux-table-occupancy" || !alerts[0].Firing || alerts[0].Time != 1 {
		t.Fatalf("alert 0 = %+v, want nmux-table-occupancy firing at t=1", alerts[0])
	}
	if alerts[0].Value <= 0.9 {
		t.Fatalf("firing occupancy = %g, want > 0.9", alerts[0].Value)
	}
	if alerts[1].Rule != "nmux-table-occupancy" || alerts[1].Firing || alerts[1].Time != 2 {
		t.Fatalf("alert 1 = %+v, want nmux-table-occupancy resolved at t=2", alerts[1])
	}
}

// TestFloodNMuxChurn is the reprogram-churn scenario: connections that
// straddle a NIC-table reprogram must not misroute. With the tier withdrawn
// the SMux path produces byte-identical encapsulation for the same flows, and
// back on the tier pinned flows keep their DIP when the backend set grows.
func TestFloodNMuxChurn(t *testing.T) {
	f := nmuxFlood(t, 256)
	c := f.Cluster
	vip := f.VIPs[4]
	pkts := floodTraffic(vip, 64, 0)

	type obs struct {
		dip, host packet.Addr
		pkt       string
	}
	before := make([]obs, len(pkts))
	for i, pkt := range pkts {
		d, err := c.Deliver(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if d.Hops()[0].Kind != "nmux" {
			t.Fatalf("flow %d first hop %s, want nmux", i, d.Hops()[0].Kind)
		}
		before[i] = obs{d.DIP, d.Host, string(d.Packet)}
	}
	// same delivers every flow again and requires the named tier to serve it
	// exactly as the first pass did.
	same := func(tier, when string) {
		t.Helper()
		for i, pkt := range pkts {
			d, err := c.Deliver(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if d.Hops()[0].Kind != tier {
				t.Fatalf("flow %d first hop %s %s, want %s", i, d.Hops()[0].Kind, when, tier)
			}
			if d.DIP != before[i].dip || d.Host != before[i].host || string(d.Packet) != before[i].pkt {
				t.Fatalf("flow %d misrouted %s: %s → %s", i, when, before[i].dip, d.DIP)
			}
		}
	}

	// Withdraw the tier: the SMux backstop (shared ECMP hash, same outer
	// source) must reproduce every delivery byte for byte. Then bring it back,
	// which pins the flows again.
	if err := c.Place(core.Target{Addr: vip}); err != nil {
		t.Fatal(err)
	}
	same("smux", "after withdraw")
	if err := c.AssignToNMux(vip); err != nil {
		t.Fatal(err)
	}
	same("nmux", "after reassign")

	// Grow the backend set (the NIC tier is reprogrammed in place): new flows
	// would hash differently, but established (pinned) flows must be
	// unaffected.
	ct := controller.New(c, assign.DefaultOptions())
	if err := ct.AddDIP(vip, service.Backend{Addr: packet.AddrFrom4(100, 4, 4, 1), Weight: 1}); err != nil {
		t.Fatal(err)
	}
	same("nmux", "across reprogram")
}

// TestFloodNMuxConcurrentChurn hammers deliveries while another goroutine
// reprograms the NIC tier; every delivery must land on a legitimate backend.
func TestFloodNMuxConcurrentChurn(t *testing.T) {
	f := nmuxFlood(t, 256)
	c := f.Cluster
	ct := controller.New(c, assign.DefaultOptions())
	vip := f.VIPs[4]
	extra := service.Backend{Addr: packet.AddrFrom4(100, 4, 4, 1), Weight: 1}
	valid := map[packet.Addr]bool{extra.Addr: true}
	for j := 0; j < 4; j++ {
		valid[packet.AddrFrom4(100, 4, byte(j), 1)] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if flip {
				err = ct.RemoveDIP(vip, extra.Addr)
			} else {
				err = ct.AddDIP(vip, extra)
			}
			if err != nil {
				t.Errorf("reprogram: %v", err)
				return
			}
			flip = !flip
		}
	}()

	pkts := floodTraffic(vip, 2000, 0)
	for i, pkt := range pkts {
		d, err := c.Deliver(pkt)
		if err != nil {
			t.Fatalf("deliver %d: %v", i, err)
		}
		if !valid[d.DIP] {
			t.Fatalf("deliver %d landed on non-backend %s", i, d.DIP)
		}
	}
	close(stop)
	wg.Wait()
}
