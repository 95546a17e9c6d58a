package core

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// collectScenario builds a NIC-tier cluster holding every kind of placement
// Collect reads: an HMux VIP, a §9 replicated VIP, a NIC VIP, a stateful
// SMux VIP with pinned connections, and a hybrid SMux VIP mid-drain after a
// DIP removal, with straddling flows pinned in its overlay; then it stops
// one switch, so its tables drop out of the high-water marks.
func collectScenario(t testing.TB) *Cluster {
	c := testClusterNMux(t, 256)
	sw0, sw1, sw2 := c.Topo.AggID(0, 0), c.Topo.AggID(1, 0), c.Topo.AggID(1, 1)

	hw := mkVIP(0, "100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4", "100.0.0.5")
	rep := mkVIP(1, "100.0.1.1", "100.0.1.2")
	nic := mkVIP(2, "100.0.2.1", "100.0.2.2", "100.0.2.3")
	sw := mkVIP(3, "100.0.3.1", "100.0.3.2")
	hyb := mkVIP(4, "100.0.4.1", "100.0.4.2", "100.0.4.3")
	must(t, c.AddVIP(hw))
	must(t, c.AddVIP(rep))
	must(t, c.AddVIP(nic))
	must(t, c.AddVIP(sw))
	must(t, c.AddVIP(hyb))
	must(t, placeOn(c, hw.Addr, sw0))
	must(t, placeOn(c, rep.Addr, sw1, sw2))
	must(t, c.AssignToNMux(nic.Addr))
	must(t, c.SetVIPMode(hyb.Addr, steer.ModeHybrid))

	for i := uint32(0); i < 64; i++ {
		for _, v := range [...]packet.Addr{hw.Addr, rep.Addr, nic.Addr, sw.Addr, hyb.Addr} {
			if _, err := c.Deliver(clientPkt(v, i)); err != nil {
				t.Fatalf("deliver %s: %v", v, err)
			}
		}
	}
	// The removal starts a drain; the DIP added behind it takes slots from
	// the survivors, so their established flows straddle the epoch and pin.
	must(t, removeBackend(c, hyb.Addr, hyb.Backends[2].Addr))
	must(t, addBackend(c, hyb.Addr, service.Backend{Addr: packet.MustParseAddr("100.0.4.4"), Weight: 1}))
	for i := uint32(0); i < 64; i++ {
		if _, err := c.Deliver(ackPkt(hyb.Addr, i)); err != nil {
			t.Fatalf("deliver %s: %v", hyb.Addr, err)
		}
	}
	c.StopSwitch(sw0)
	return c
}

// ackPkt is clientPkt's flow past its handshake.
func ackPkt(vip packet.Addr, i uint32) []byte {
	return packet.BuildTCP(packet.FiveTuple{
		Src: packet.AddrFrom4(30, 0, byte(i>>8), byte(i)), Dst: vip,
		SrcPort: uint16(1024 + i), DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPAck, []byte("data"))
}

// gaugeLines renders every gauge of a registry, one "name value" line each,
// sorted by name.
func gaugeLines(reg *telemetry.Registry) string {
	var lines []string
	for _, g := range reg.Gauges() {
		lines = append(lines, fmt.Sprintf("%s %d\n", g.Name(), g.Value()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestCollectGaugesGolden pins what a scrape publishes: every gauge the
// cluster's registry holds after Collect, by name and value.
// testdata/collect_gauges.golden was written by the tree whose Collect
// published each mux gauge by hand.
func TestCollectGaugesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/collect_gauges.golden")
	must(t, err)
	c := collectScenario(t)
	c.Collect()
	reg, _ := c.Telemetry()
	if got := gaugeLines(reg); got != string(want) {
		t.Errorf("gauges:\n%s\nwant (testdata/collect_gauges.golden):\n%s", got, want)
	}
}

// TestCollectZeroAlloc: a scrape's collector allocates nothing, so the obs
// tick stays allocation-free in steady state over every tier and a stopped
// switch.
func TestCollectZeroAlloc(t *testing.T) {
	c := collectScenario(t)
	c.Collect()
	if allocs := testing.AllocsPerRun(100, c.Collect); allocs != 0 {
		t.Fatalf("Collect: %v allocs/op, want 0", allocs)
	}
}
