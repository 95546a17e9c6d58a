package wire

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"duet/internal/delta"
	"duet/internal/packet"
)

// muxGauges renders a node's mux-tier gauges, one "name value" line each,
// sorted by name.
func muxGauges(n *Node) string {
	var lines []string
	for _, g := range n.Reg.Gauges() {
		for _, prefix := range []string{"hmux.", "smux.", "nmux.", "steer."} {
			if strings.HasPrefix(g.Name(), prefix) {
				lines = append(lines, fmt.Sprintf("%s %d\n", g.Name(), g.Value()))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// gaugePopulation is the fixed config TestSMuxNodeGaugesGolden pushes: NIC
// and plain VIPs in every mode, of one to four backends.
func gaugePopulation(t testing.TB, epoch uint64, dips int) *delta.State {
	modes := []string{"stateful", "stateless", "hybrid"}
	var vips []VIPSpec
	for i := 1; i <= 9; i++ {
		v := VIPSpec{Addr: packet.AddrFrom4(10, 0, 0, byte(i)).String(), Nic: i%2 == 0, Mode: modes[i%3]}
		for d := 0; d < 1+(i+dips)%4; d++ {
			v.Backends = append(v.Backends, BackendSpec{Addr: packet.AddrFrom4(100, 0, byte(i), byte(d+1)).String()})
		}
		vips = append(vips, v)
	}
	return configAt(t, epoch, vips...)
}

// TestSMuxNodeGaugesGolden is core's TestCollectGaugesGolden for a socket
// node: after a bootstrap and a delta that resizes every backend set, an
// smux node with a NIC table publishes the mux-tier gauges
// testdata/smux_gauges.golden holds, written by the tree whose smux role
// published each of them by hand.
func TestSMuxNodeGaugesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/smux_gauges.golden")
	if err != nil {
		t.Fatal(err)
	}
	spec := dataplaneSpec(t)
	spec.Nodes[0].NMuxTable = 256
	sm, err := StartNode(spec, "smux-1")
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	c := DialControl(sm.ControlAddr(), sm.Reg)
	defer c.Close()
	st1, st2 := gaugePopulation(t, 1, 0), gaugePopulation(t, 2, 1)
	for _, d := range []*delta.Delta{delta.Diff(delta.NewState(), st1), delta.Diff(st1, st2)} {
		if _, err := pushDelta(c, d); err != nil {
			t.Fatal(err)
		}
	}
	sm.Obs.Tick()
	if got := muxGauges(sm); got != string(want) {
		t.Errorf("gauges:\n%s\nwant (testdata/smux_gauges.golden):\n%s", got, want)
	}
}

// watchdog reports whether a node's rule is firing, failing the test if the
// rule could not be evaluated (its series missing or its denominator zero).
func watchdog(t *testing.T, n *Node, rule string) bool {
	t.Helper()
	for _, st := range n.Obs.Status() {
		if st.Name == rule {
			if !st.OK {
				t.Fatalf("%s was not evaluated: its series are not published", rule)
			}
			return st.Firing
		}
	}
	t.Fatalf("%s is not installed", rule)
	return false
}

// TestSwitchNodeTunnelWatchdogFires: a switch node publishes its table
// occupancy through the collector core.Cluster runs, so the
// hmux-tunnel-occupancy watchdog every node installs can fire — and clear —
// on a duetd switch. 47 VIPs of 10 distinct backends fill 470 of the 512
// tunnel entries, past the 90 % threshold.
func TestSwitchNodeTunnelWatchdogFires(t *testing.T) {
	spec := dataplaneSpec(t)
	sw, err := StartNode(spec, "sw-1")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	c := DialControl(sw.ControlAddr(), sw.Reg)
	defer c.Close()
	var vips []VIPSpec
	for i := 0; i < 47; i++ {
		v := VIPSpec{Addr: packet.AddrFrom4(10, 0, 1, byte(i)).String()}
		for d := 0; d < 10; d++ {
			v.Backends = append(v.Backends, BackendSpec{Addr: packet.AddrFrom4(100, 1, byte(i), byte(d+1)).String()})
		}
		vips = append(vips, v)
	}
	full, empty := configAt(t, 1, vips...), configAt(t, 2)
	if _, err := pushDelta(c, delta.Diff(delta.NewState(), full)); err != nil {
		t.Fatal(err)
	}
	sw.Obs.Tick()
	if got := gauge(sw, "hmux.tables.tunnel_used_max"); got != 470 {
		t.Fatalf("hmux.tables.tunnel_used_max = %d, want 470", got)
	}
	if !watchdog(t, sw, "hmux-tunnel-occupancy") {
		t.Fatal("hmux-tunnel-occupancy is not firing at 470 of 512 tunnel entries")
	}
	if _, err := pushDelta(c, delta.Diff(full, empty)); err != nil {
		t.Fatal(err)
	}
	sw.Obs.Tick()
	if watchdog(t, sw, "hmux-tunnel-occupancy") {
		t.Fatal("hmux-tunnel-occupancy still firing after every VIP left the switch")
	}
}
