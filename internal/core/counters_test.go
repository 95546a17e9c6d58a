package core

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/telemetry"
)

// stageRows builds the delivery matrix's rows on a fresh NIC-tier cluster —
// HMux, HMux+TIP, NMux hit, NMux miss → SMux, FIB miss, bad checksum — and a
// client stream of n packets dealt over them in turn, each row's packets
// cycling over 40 flows so the per-flow tables see both inserts and hits.
func stageRows(t *testing.T, n int) (*Cluster, [][]byte) {
	c := testClusterNMux(t, 4096)
	hmuxSw, tipSw := c.Topo.AggID(0, 0), c.Topo.AggID(1, 0)
	vip := func(i int) *service.VIP {
		dips := []service.Backend{
			{Addr: packet.AddrFrom4(100, 0, byte(i), 1), Weight: 1},
			{Addr: packet.AddrFrom4(100, 0, byte(i), 2), Weight: 1},
		}
		v := &service.VIP{Addr: packet.AddrFrom4(10, 0, 2, byte(i)), Backends: dips}
		must(t, c.AddVIP(v))
		return v
	}
	hw := vip(1)
	must(t, placeOn(c, hw.Addr, hmuxSw))

	tipDIPs := []service.Backend{{Addr: packet.MustParseAddr("100.0.9.1"), Weight: 1}, {Addr: packet.MustParseAddr("100.0.9.2"), Weight: 1}}
	tip := &service.VIP{Addr: packet.MustParseAddr("10.0.2.2"), Backends: []service.Backend{{Addr: packet.MustParseAddr("20.0.0.2"), Weight: 1}}}
	must(t, c.AddVIP(tip))
	must(t, placeOn(c, tip.Addr, hmuxSw))
	must(t, c.InstallTIP(tip.Backends[0].Addr, tipSw, tipDIPs))
	must(t, c.RegisterTIPBackends(tip.Addr, tipDIPs))

	nic := vip(3)
	must(t, c.AssignToNMux(nic.Addr))
	sw := vip(4)
	fibMiss := vip(5)
	must(t, placeOn(c, fibMiss.Addr, hmuxSw))
	must(t, c.Place(Target{Addr: fibMiss.Addr, Hold: true}))

	rows := []func(flow uint32) []byte{
		func(f uint32) []byte { return clientPkt(hw.Addr, f) },
		func(f uint32) []byte { return clientPkt(tip.Addr, f) },
		func(f uint32) []byte { return clientPkt(nic.Addr, f) },
		func(f uint32) []byte { return clientPkt(sw.Addr, f) },
		func(f uint32) []byte { return clientPkt(fibMiss.Addr, f) },
		func(f uint32) []byte {
			pkt := clientPkt(hw.Addr, f)
			pkt[11] ^= 0xff
			return pkt
		},
	}
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = rows[i%len(rows)](uint32(i / len(rows) % 40))
	}
	return c, pkts
}

// stageCounters renders the per-packet counters of every stage and of core's
// own attribution, one "name value" line each, sorted by name.
func stageCounters(reg *telemetry.Registry) string {
	var lines []string
	for name, v := range counters(reg) {
		for _, prefix := range []string{"hmux.", "nmux.", "smux.", "hostagent.", "core.deliver."} {
			if strings.HasPrefix(name, prefix) {
				lines = append(lines, fmt.Sprintf("%s %d\n", name, v))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestStageCountersPerRun: the stages' per-packet counters are tallied in the
// forwarding goroutine's scratch and added once per run, and the totals are
// the ones per-packet counting left. testdata/stage_counters.golden was
// written by the tree that still counted each packet in the stage bodies.
// 700 packets straddle two run boundaries; both entry points must land on the
// same totals.
func TestStageCountersPerRun(t *testing.T) {
	want, err := os.ReadFile("testdata/stage_counters.golden")
	must(t, err)
	for _, tc := range []struct {
		name    string
		deliver func(c *Cluster, pkts [][]byte)
	}{
		{"Deliver", func(c *Cluster, pkts [][]byte) {
			for _, p := range pkts {
				_, _ = c.Deliver(p) // the bad-checksum row fails by design
			}
		}},
		{"DeliverBatch", func(c *Cluster, pkts [][]byte) { c.DeliverBatch(pkts, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, pkts := stageRows(t, 700)
			tc.deliver(c, pkts)
			reg, _ := c.Telemetry()
			if got := stageCounters(reg); got != string(want) {
				t.Errorf("stage counters:\n%s\nwant (testdata/stage_counters.golden):\n%s", got, want)
			}
		})
	}
}
