package wire

import (
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"testing"

	"duet/internal/delta"
	"duet/internal/packet"
)

// TestStageCountersPerBurst is core's TestStageCountersPerRun for the socket
// orchestration: a switch node and a host node count what their stages did
// per receive burst, and the totals over a switch → host stream are the ones
// per-packet counting left (testdata/stage_counters.golden, written by the
// tree that still counted each packet in the stage bodies). One frame in
// five has a corrupt header and is the switch's malformed drop.
func TestStageCountersPerBurst(t *testing.T) {
	want, err := os.ReadFile("testdata/stage_counters.golden")
	if err != nil {
		t.Fatal(err)
	}
	spec := dataplaneSpec(t)
	var nodes []*Node
	for _, name := range []string{"sw-1", "host-1"} {
		n, err := StartNode(spec, name)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		c := DialControl(n.ControlAddr(), n.Reg)
		defer c.Close()
		if _, err := pushDelta(c, delta.Diff(delta.NewState(), oneVIPState(t))); err != nil {
			t.Fatalf("bootstrap push to %s: %v", name, err)
		}
		nodes = append(nodes, n)
	}
	sw, host := nodes[0], nodes[1]

	client, err := net.Dial("udp", sw.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const frames, bad = 600, 120
	for i := 0; i < frames; i++ {
		syn := packet.BuildTCP(packet.FiveTuple{
			Src: packet.AddrFrom4(30, 0, 0, byte(i%40)), Dst: packet.MustParseAddr("10.0.0.1"),
			SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP,
		}, packet.TCPSyn, []byte("GET /"))
		if i%5 == 4 {
			syn[11] ^= 0xff
		}
		if _, err := client.Write(AppendFrame(nil, syn)); err != nil {
			t.Fatal(err)
		}
		if i%128 == 127 { // stay inside the receive buffer: every frame must arrive
			waitFor(t, "the switch to keep up", func() bool { return counter(sw, "hmux.packets")+128 > uint64(i) })
		}
	}
	waitFor(t, "every frame counted", func() bool {
		return counter(sw, "hmux.packets") == frames && counter(host, "hostagent.received") == frames-bad
	})

	var lines []string
	for _, n := range nodes {
		for _, c := range n.Reg.Counters() {
			if name := c.Name(); strings.HasPrefix(name, "hmux.") || strings.HasPrefix(name, "hostagent.") {
				lines = append(lines, fmt.Sprintf("%s %s %d\n", n.Me.Name, name, c.Value()))
			}
		}
	}
	sort.Strings(lines)
	if got := strings.Join(lines, ""); got != string(want) {
		t.Errorf("stage counters:\n%s\nwant (testdata/stage_counters.golden):\n%s", got, want)
	}
}
