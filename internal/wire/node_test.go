package wire

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"unsafe"

	"duet/internal/delta"
	"duet/internal/hostagent"
	"duet/internal/obs"
	"duet/internal/packet"
	"duet/internal/telemetry"
)

// TestNodeRecorderSamplesPackets: a wire node must sample its per-packet
// pipeline events. Recording every packet overwrites the 4,096-slot ring —
// which control-plane events and trace hops share — within milliseconds at
// line rate, so the first journey's hop would be long gone after 10,000
// packets.
func TestNodeRecorderSamplesPackets(t *testing.T) {
	spec := dataplaneSpec(t)
	// The switch's next hop is a socket nobody reads: sends succeed and
	// nothing is refused, so no drop events enter the ring.
	host, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	spec.Nodes[1].Data = host.LocalAddr().String()
	sw, err := StartNode(spec, "sw-1")
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	c := DialControl(sw.ControlAddr(), sw.Reg)
	defer c.Close()
	if _, err := pushDelta(c, delta.Diff(delta.NewState(), oneVIPState(t))); err != nil {
		t.Fatalf("bootstrap push: %v", err)
	}

	client, err := net.Dial("udp", sw.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const packets = 10000
	forwarded := sw.Reg.Counter("wire.tx.frames")
	for i := 0; i < packets; i++ {
		syn := packet.BuildTCP(packet.FiveTuple{
			Src: packet.AddrFrom4(30, 0, byte(i>>8), byte(i)), Dst: packet.MustParseAddr("10.0.0.1"),
			SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP,
		}, packet.TCPSyn, nil)
		if _, err := client.Write(AppendFrame(nil, syn)); err != nil {
			t.Fatal(err)
		}
		if i%256 == 255 { // stay inside the receive buffer: every packet must go through
			waitFor(t, "the switch to keep up", func() bool { return forwarded.Value()+256 > uint64(i) })
		}
	}
	waitFor(t, "every packet forwarded", func() bool { return forwarded.Value() == packets })

	firstTrace := uint64(sw.self32)<<32 | 1
	var packetIn int
	var firstHop bool
	for _, e := range sw.Rec.Snapshot() {
		switch {
		case e.Kind == telemetry.KindPacketIn:
			packetIn++
		case e.Kind == telemetry.KindTraceHop && e.Aux == firstTrace:
			firstHop = true
		}
	}
	if packetIn == 0 || packetIn > packets/DefaultTraceEvery+1 {
		t.Errorf("recorder holds %d packet-in events for %d packets, want 1..%d", packetIn, packets, packets/DefaultTraceEvery+1)
	}
	if !firstHop {
		t.Error("the first traced packet's hop was overwritten by per-packet events")
	}
}

// TestNodePaysForItsRingsAtStart: StartNode returns with the obs series list
// built — one 256-point ring per series, the node's largest allocation — so
// the first scrape tick, one interval into whatever the node is serving by
// then, allocates less than a single ring, and the second nothing.
func TestNodePaysForItsRingsAtStart(t *testing.T) {
	spec := dataplaneSpec(t)
	spec.ScrapeMillis = 3600 * 1000 // the node's own ticker never fires; the test ticks
	// MemStats are process-wide. On one P, yielding runs the node's
	// goroutines up to their first park (which allocates) before anything is
	// counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n, err := StartNode(spec, "host-1")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 10; i++ {
		runtime.Gosched()
	}

	tick := func() (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n.Obs.Tick()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	const ring = 256 * uint64(unsafe.Sizeof(obs.Point{}))
	if mallocs, bytes := tick(); bytes >= ring {
		t.Errorf("first tick allocated %d B in %d objects, want less than one %d B ring", bytes, mallocs, ring)
	}
	if mallocs, bytes := tick(); mallocs != 0 {
		t.Errorf("second tick allocated %d B in %d objects, want none", bytes, mallocs)
	}
	points := -1
	for _, s := range n.Obs.Dump(0).Series {
		if s.Name == "hostagent.received" {
			points = len(s.Points)
		}
	}
	if points != 2 {
		t.Errorf("hostagent.received has %d points after two ticks, want 2", points)
	}
}

// TestHostNodeDeliversIPOptions: a packet whose header carries IP options
// leaves a host node's handler with only its destination and checksum
// changed, and counts as delivered. (The agent once rewrote the destination
// by re-serialising a 20-byte header, refused a longer one, and dropped the
// packet without counting it anywhere.)
func TestHostNodeDeliversIPOptions(t *testing.T) {
	vip, dip := packet.MustParseAddr("10.0.0.1"), packet.MustParseAddr("100.0.0.1")
	reg := telemetry.NewRegistry()
	n := &Node{agent: hostagent.New(dip), delivered: reg.Counter("wire.delivered").Shard()}
	if err := n.agent.RegisterDIP(vip, dip); err != nil {
		t.Fatal(err)
	}
	syn := packet.BuildTCP(packet.FiveTuple{
		Src: packet.MustParseAddr("30.0.0.1"), Dst: vip, SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, []byte("GET /"))
	// Three NOPs and an end of list: IHL 6.
	client := append(append(bytes.Clone(syn[:packet.HeaderLen]), 1, 1, 1, 0), syn[packet.HeaderLen:]...)
	client[0] = 4<<4 | 6
	binary.BigEndian.PutUint16(client[2:4], uint16(len(client)))
	client[10], client[11] = 0, 0
	binary.BigEndian.PutUint16(client[10:12], packet.Checksum(client[:24]))
	encapped, err := packet.Encapsulate(nil, packet.MustParseAddr("20.0.0.1"), dip, client, 64)
	if err != nil {
		t.Fatal(err)
	}

	got := n.hostPacket(new(txBatch), encapped, nil, 0)
	if reg.Counter("wire.delivered").Value() != 1 || len(got) != len(client) {
		t.Fatalf("delivered %d packets of %d bytes, want 1 of %d", reg.Counter("wire.delivered").Value(), len(got), len(client))
	}
	if f, err := packet.Parse(got); err != nil || f.Tuple.Dst != dip {
		t.Fatalf("delivered header: %+v, %v; want one that verifies, to %s", f, err, dip)
	}
	for i := range got {
		if i != 10 && i != 11 && (i < 16 || i >= 20) && got[i] != client[i] {
			t.Fatalf("byte %d changed %#02x → %#02x: only the destination and the checksum may", i, client[i], got[i])
		}
	}
}

// TestTracedJourneyCarriesItsPipelineEvents: a node takes one sampling
// decision per packet, the dataplane's trace, and hands it to the mux. A
// frame that arrives traced leaves its pipeline event beside its trace hop
// whatever the node's own counters say, and untraced frames leave neither.
// (With a second, independent 1-in-1024 gate inside the agent, the first
// frame a host ever saw was never the sampled one.)
func TestTracedJourneyCarriesItsPipelineEvents(t *testing.T) {
	spec := dataplaneSpec(t)
	host, err := StartNode(spec, "host-1")
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	c := DialControl(host.ControlAddr(), host.Reg)
	defer c.Close()
	if _, err := pushDelta(c, delta.Diff(delta.NewState(), oneVIPState(t))); err != nil {
		t.Fatalf("bootstrap push: %v", err)
	}

	client, err := net.Dial("udp", host.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const trace = 0x1400000100000007
	for i := 0; i < 3; i++ {
		syn := packet.BuildTCP(packet.FiveTuple{
			Src: packet.AddrFrom4(30, 0, 0, byte(i)), Dst: packet.MustParseAddr("10.0.0.1"),
			SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP,
		}, packet.TCPSyn, nil)
		encapped, err := packet.Encapsulate(nil, packet.MustParseAddr("20.0.0.1"), packet.MustParseAddr("100.0.0.1"), syn, 64)
		if err != nil {
			t.Fatal(err)
		}
		frame := AppendFrame(nil, encapped)
		if i == 0 {
			frame = AppendTracedFrame(nil, encapped, trace)
		}
		if _, err := client.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	delivered := host.Reg.Counter("wire.delivered")
	waitFor(t, "three deliveries", func() bool { return delivered.Value() == 3 })

	var decaps, hops int
	for _, e := range host.Rec.Snapshot() {
		switch e.Kind {
		case telemetry.KindDecap:
			decaps++
		case telemetry.KindTraceHop:
			hops++
			if e.Aux != trace {
				t.Errorf("trace hop of journey %#x, want %#x", e.Aux, uint64(trace))
			}
		}
	}
	if decaps != 1 || hops != 1 {
		t.Errorf("recorder holds %d decap events and %d trace hops for one traced frame in three, want 1 and 1", decaps, hops)
	}
}
