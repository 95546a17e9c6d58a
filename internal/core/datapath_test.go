package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/hmux"
	"duet/internal/hostagent"
	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/telemetry"
	"duet/internal/topology"
)

// rewritten is the oracle for a delivered packet: the client's bytes with
// only the destination (and so the header checksum) changed.
func rewritten(t testing.TB, pkt []byte, dip packet.Addr) []byte {
	t.Helper()
	want := append([]byte(nil), pkt...)
	if err := packet.RewriteDst(want, dip); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestZeroAllocDeliverMatrix runs one body over every tier × consistency
// mode × protocol the in-process datapath has: the scratch-taking forwarding
// path allocates nothing, delivers into the caller's buffer the client's
// packet with only the destination rewritten — IP options included — and
// reports the hops TestDeliveryHopOrdering pins, moving no drop counter; a
// client header that fails verification is refused at ingress before any mux
// or agent sees it. The hmux-fib-miss row is a VIP whose /32 still leads to
// its switch after a Hold target took it out of the tables: the miss is a
// fall-through to a host mux pair, not a drop.
func TestZeroAllocDeliverMatrix(t *testing.T) {
	c := testClusterNMux(t, 4096)
	hmuxSw, tipSw := c.Topo.AggID(0, 0), c.Topo.AggID(1, 0)
	swName := func(sw topology.SwitchID) string { return c.Topo.Switch(sw).Name }
	var hostMuxes []string // the NMux/SMux pairs share one address each
	for _, sm := range c.SMuxes {
		hostMuxes = append(hostMuxes, sm.Self().String())
	}

	tiers := []struct {
		name  string
		kinds []string
		nodes [][]string // acceptable Node per mux hop; the agent hop is the Host
		place func(t *testing.T, v *service.VIP, dips []service.Backend)
	}{
		{"hmux", []string{"hmux", "agent"}, [][]string{{swName(hmuxSw)}},
			func(t *testing.T, v *service.VIP, _ []service.Backend) {
				must(t, placeOn(c, v.Addr, hmuxSw))
			}},
		{"hmux+tip", []string{"hmux", "tip", "agent"}, [][]string{{swName(hmuxSw)}, {swName(tipSw)}},
			func(t *testing.T, v *service.VIP, dips []service.Backend) {
				must(t, placeOn(c, v.Addr, hmuxSw))
				must(t, c.InstallTIP(v.Backends[0].Addr, tipSw, dips))
				must(t, c.RegisterTIPBackends(v.Addr, dips))
			}},
		{"nmux-hit", []string{"nmux", "agent"}, [][]string{hostMuxes},
			func(t *testing.T, v *service.VIP, _ []service.Backend) {
				must(t, c.AssignToNMux(v.Addr))
			}},
		{"nmux-miss-smux", []string{"smux", "agent"}, [][]string{hostMuxes},
			func(*testing.T, *service.VIP, []service.Backend) {}},
		{"hmux-fib-miss", []string{"smux", "agent"}, [][]string{hostMuxes},
			func(t *testing.T, v *service.VIP, _ []service.Backend) {
				must(t, placeOn(c, v.Addr, hmuxSw))
				must(t, c.Place(Target{Addr: v.Addr, Hold: true}))
			}},
	}
	tcp := func(ft packet.FiveTuple) []byte { return packet.BuildTCP(ft, packet.TCPAck, []byte("established")) }
	protos := []struct {
		name  string
		build func(packet.FiveTuple) []byte
		// refused: the client's header fails verification at ingress, the
		// one place it is verified — Deliver returns this error, counts it,
		// and no mux or agent sees the packet.
		refused error
	}{
		{name: "tcp", build: tcp},
		{name: "udp", build: func(ft packet.FiveTuple) []byte { return packet.BuildUDP(ft, []byte("datagram")) }},
		// IP options: every stage forwards the header as it came, and the
		// agent's rewrite changes only the destination and the checksum.
		{name: "tcp+options", build: func(ft packet.FiveTuple) []byte { return withOptions(tcp(ft)) }},
		{name: "bad-checksum", refused: packet.ErrBadChecksum, build: func(ft packet.FiveTuple) []byte {
			pkt := tcp(ft)
			pkt[11] ^= 0xff
			return pkt
		}},
		{name: "truncated", refused: packet.ErrTruncated, build: func(ft packet.FiveTuple) []byte {
			pkt := tcp(ft)
			return pkt[:len(pkt)-1]
		}},
		{name: "empty", refused: packet.ErrTruncated, build: func(packet.FiveTuple) []byte { return []byte{} }},
	}

	reg, _ := c.Telemetry()
	n := 0
	for _, tier := range tiers {
		for _, mode := range steer.Modes() {
			n++
			dips := []service.Backend{
				{Addr: packet.AddrFrom4(100, 0, byte(n), 1), Weight: 1},
				{Addr: packet.AddrFrom4(100, 0, byte(n), 2), Weight: 1},
			}
			v := &service.VIP{Addr: packet.AddrFrom4(10, 0, 1, byte(n)), Backends: dips}
			if tier.name == "hmux+tip" {
				v.Backends = []service.Backend{{Addr: packet.AddrFrom4(20, 0, 0, byte(n)), Weight: 1}}
			}
			must(t, c.AddVIP(v))
			must(t, c.SetVIPMode(v.Addr, mode))
			tier.place(t, v, dips)

			for _, proto := range protos {
				t.Run(fmt.Sprintf("%s/%s/%s", tier.name, mode, proto.name), func(t *testing.T) {
					pkt := proto.build(packet.FiveTuple{
						Src: packet.AddrFrom4(30, 0, 0, 7), Dst: v.Addr, SrcPort: 4242, DstPort: 80,
					})
					if proto.refused != nil {
						before := counters(reg)
						if _, err := c.Deliver(pkt); !errors.Is(err, proto.refused) {
							t.Fatalf("Deliver = %v, want %v", err, proto.refused)
						}
						for name, got := range counters(reg) {
							want := before[name]
							if name == "core.deliver.packets" || name == "core.deliver.errors" {
								want++
							}
							if got != want {
								t.Errorf("%s moved %d → %d, want %d", name, before[name], got, want)
							}
						}
						refusedInBatch(t, c, reg, v.Addr, pkt, proto.refused)
						return
					}
					snap := c.snap.Load()
					sc := new(scratch)
					out := make([]byte, 0, len(pkt))
					var d Delivery
					deliver := func() {
						d = Delivery{}
						if err := c.deliver(snap, pkt, sc, out, &d, false); err != nil {
							t.Fatal(err)
						}
						c.flush(sc)
					}
					modeCtr := reg.Counter("core.deliver.mode." + mode.String())
					served := modeCtr.Value()
					before := counters(reg)
					deliver() // establishes the flow, sizes the scratch
					if allocs := testing.AllocsPerRun(100, deliver); allocs != 0 {
						t.Errorf("deliver: %v allocs per packet, want 0", allocs)
					}

					if !bytes.Equal(d.Packet, rewritten(t, pkt, d.DIP)) {
						t.Errorf("delivered %x, want the client's packet with only dst rewritten to %s", d.Packet, d.DIP)
					}
					if &d.Packet[0] != &out[:1][0] {
						t.Error("delivered packet is not in the caller's buffer")
					}
					if d.VIP != v.Addr || (d.DIP != dips[0].Addr && d.DIP != dips[1].Addr) || d.Host != d.DIP {
						t.Errorf("delivery %s → %s on host %s, want one of %v", d.VIP, d.DIP, d.Host, dips)
					}
					if got := modeCtr.Value() - served; tier.kinds[0] == "smux" && got != 102 {
						t.Errorf("the SMux served %d of 102 packets in mode %s", got, mode)
					}
					if d.FIBMiss() != (tier.name == "hmux-fib-miss") {
						t.Errorf("FIBMiss() = %v on tier %s", d.FIBMiss(), tier.name)
					}
					for name, got := range counters(reg) {
						if strings.Contains(name, ".drops.") && got != before[name] {
							t.Errorf("%s moved %d → %d on delivered packets", name, before[name], got)
						}
					}

					hops := d.Hops()
					if len(hops) != len(tier.kinds) {
						t.Fatalf("hops = %+v, want kinds %v", hops, tier.kinds)
					}
					for i, h := range hops {
						nodes := []string{d.Host.String()}
						if i < len(tier.nodes) {
							nodes = tier.nodes[i]
						}
						if h.Kind != tier.kinds[i] || !slices.Contains(nodes, h.Node) {
							t.Errorf("hop %d = %+v, want kind %s at one of %v", i, h, tier.kinds[i], nodes)
						}
					}
					if got, err := c.Deliver(pkt); err != nil || !bytes.Equal(got.Packet, d.Packet) {
						t.Errorf("Deliver = %x, %v; want what deliver wrote, %x", got.Packet, err, d.Packet)
					}
				})
			}
		}
	}
}

// refusedInBatch sends a refused packet through DeliverBatch in three
// placements: the middle of a 2×batchRun+1 batch of good packets, a batch of
// one, and next to a nil entry where the first run ends and the second
// begins. Each refused entry fails with its typed error (a nil packet is
// truncated), core.deliver.errors moves by exactly the refused count, and
// every good neighbour is delivered byte for byte as a serial Deliver
// delivers it.
func refusedInBatch(t *testing.T, c *Cluster, reg *telemetry.Registry, vip packet.Addr, bad []byte, want error) {
	t.Helper()
	good := make([][]byte, 2*batchRun+1)
	serial := make([][]byte, len(good))
	for i := range good {
		good[i] = packet.BuildTCP(packet.FiveTuple{
			Src: packet.AddrFrom4(30, 1, byte(i>>8), byte(i)), Dst: vip, SrcPort: uint16(2000 + i), DstPort: 80,
		}, packet.TCPAck, []byte("neighbour"))
		d, err := c.Deliver(good[i])
		if err != nil {
			t.Fatalf("serial Deliver of neighbour %d: %v", i, err)
		}
		serial[i] = d.Packet
	}
	mid := batchRun
	middle, besideNil := slices.Clone(good), slices.Clone(good)
	middle[mid] = bad
	besideNil[mid-1], besideNil[mid] = nil, bad
	placements := []struct {
		name    string
		pkts    [][]byte
		refused map[int]error
	}{
		{"middle", middle, map[int]error{mid: want}},
		{"alone", [][]byte{bad}, map[int]error{0: want}},
		{"beside-nil", besideNil, map[int]error{mid - 1: packet.ErrTruncated, mid: want}},
	}
	errs := reg.Counter("core.deliver.errors")
	for _, pl := range placements {
		before := errs.Value()
		res := c.DeliverBatch(pl.pkts, 2)
		if got := errs.Value() - before; got != uint64(len(pl.refused)) {
			t.Errorf("%s: core.deliver.errors moved by %d, want %d", pl.name, got, len(pl.refused))
		}
		for i, r := range res {
			if want, ok := pl.refused[i]; ok {
				if !errors.Is(r.Err, want) {
					t.Errorf("%s: packet %d: %v, want %v", pl.name, i, r.Err, want)
				}
				continue
			}
			if r.Err != nil || !bytes.Equal(r.Delivery.Packet, serial[i]) {
				t.Errorf("%s: neighbour %d = %x, %v; want %x as Deliver gave it", pl.name, i, r.Delivery.Packet, r.Err, serial[i])
			}
		}
	}
}

// withOptions returns pkt with a 4-byte IP options field (three NOPs and an
// end of list) after its fixed header: IHL 6, lengths and checksum to match.
func withOptions(pkt []byte) []byte {
	out := append(append(slices.Clone(pkt[:packet.HeaderLen]), 1, 1, 1, 0), pkt[packet.HeaderLen:]...)
	out[0] = 4<<4 | 6
	binary.BigEndian.PutUint16(out[2:4], uint16(len(out)))
	out[10], out[11] = 0, 0
	binary.BigEndian.PutUint16(out[10:12], packet.Checksum(out[:24]))
	return out
}

// counters reads every counter of a registry by name.
func counters(reg *telemetry.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range reg.Counters() {
		out[c.Name()] = c.Value()
	}
	return out
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// placeOn is a one-target Place: the VIP onto switches sws, or — none — onto
// the SMux tier.
func placeOn(c *Cluster, vip packet.Addr, sws ...topology.SwitchID) error {
	return c.Place(Target{Addr: vip, Switches: sws})
}

// mixedBatch builds n client packets of varying length, alternating between
// an HMux-hosted and an SMux-served VIP, with source addresses from base up.
func mixedBatch(vips []packet.Addr, base, n int) [][]byte {
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = packet.BuildTCP(packet.FiveTuple{
			Src: packet.Addr(0x1e000000 + uint32(base+i)), Dst: vips[i%len(vips)],
			SrcPort: uint16(1024 + i), DstPort: 80,
		}, packet.TCPSyn, bytes.Repeat([]byte{byte(i)}, i%97))
	}
	return pkts
}

func twoTierCluster(t testing.TB) (*Cluster, []packet.Addr) {
	c := testCluster(t)
	hw, sw := mkVIP(0, "100.0.0.1", "100.0.0.2"), mkVIP(1, "100.0.1.1", "100.0.1.2")
	must(t, c.AddVIP(hw))
	must(t, c.AddVIP(sw))
	must(t, placeOn(c, hw.Addr, c.Topo.AggID(0, 0)))
	return c, []packet.Addr{hw.Addr, sw.Addr}
}

// TestZeroAllocDeliverBatchCount pins DeliverBatch's allocation count as a
// function of the batch length alone: the results array, one arena per run,
// and three for what the workers share (run cursor, wait group, the worker
// closure) — whatever the worker count, none per packet. allocs_per_op on the
// in-process benchmark workloads is this number over the batch length.
func TestZeroAllocDeliverBatchCount(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector, so scratch is re-grown at random")
	}
	// A collection empties the scratch pool's idle half and reschedules the
	// workers, and the next batch re-grows a scratch: a handful of
	// allocations per cycle, not per batch. The steady-state count is pinned
	// with the collector held off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c, vips := twoTierCluster(t)
	for _, n := range []int{0, 1, batchRun, batchRun + 1, 1000, 16 * batchRun} {
		pkts := mixedBatch(vips, 0, n)
		want := 3.0
		if n > 0 {
			want += 1 + float64((n+batchRun-1)/batchRun)
		}
		for _, workers := range []int{0, 1, 2, 4} {
			c.DeliverBatch(pkts, workers) // establishes the flows, fills the scratch pool
			got := testing.AllocsPerRun(20, func() { c.DeliverBatch(pkts, workers) })
			if got != want {
				t.Errorf("DeliverBatch(%d packets, %d workers): %v allocs, want %v", n, workers, got, want)
			}
		}
	}
}

// BenchmarkDeliverBatch prices one packet of DeliverBatch (wall time over
// packets) in two shapes of input. cold is hw-steady's: 65,536 separately
// allocated 40 B packets over 64 HMux VIPs, delivered in a permuted order on
// two workers, so a run's packets are not in its worker's cache when the run
// starts. warm is one run of batchRun packets delivered again and again, on
// the one worker a single run gets, every header already in L1.
// deliverRun's sweep moves cold and leaves warm where it was.
func BenchmarkDeliverBatch(b *testing.B) {
	c := testCluster(b)
	vips := make([]packet.Addr, 64)
	for i := range vips {
		v := &service.VIP{Addr: packet.AddrFrom4(10, 0, 2, byte(i)), Backends: []service.Backend{
			{Addr: packet.AddrFrom4(100, 1, byte(i), 1), Weight: 1},
			{Addr: packet.AddrFrom4(100, 1, byte(i), 2), Weight: 1},
		}}
		must(b, c.AddVIP(v))
		must(b, placeOn(c, v.Addr, c.Topo.AggID(i%2, i/2%2)))
		vips[i] = v.Addr
	}
	built := make([][]byte, 1<<16)
	for j := range built {
		built[j] = packet.BuildTCP(packet.FiveTuple{
			Src: packet.Addr(0x1e000000 + uint32(j)), Dst: vips[j%len(vips)], SrcPort: uint16(1024 + j), DstPort: 80,
		}, packet.TCPAck, nil)
	}
	cold := make([][]byte, len(built))
	for i, j := range rand.New(rand.NewSource(1)).Perm(len(built)) {
		cold[i] = built[j]
	}
	for _, r := range c.DeliverBatch(cold, 1) {
		must(b, r.Err)
	}
	for _, bc := range []struct {
		name string
		pkts [][]byte
	}{{"cold", cold}, {"warm", cold[:batchRun]}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.DeliverBatch(bc.pkts, 2)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.pkts)), "ns/pkt")
		})
	}
}

// TestBatchResultsOutliveLaterBatches is the ownership half of the arena
// contract: what a batch returned is still exactly what was delivered after
// later batches and single deliveries have reused every scratch buffer.
func TestBatchResultsOutliveLaterBatches(t *testing.T) {
	c, vips := twoTierCluster(t)
	first := mixedBatch(vips, 0, 3*batchRun+17)
	res := c.DeliverBatch(first, 2)
	for _, p := range mixedBatch(vips, 1<<16, 2*batchRun) {
		if _, err := c.Deliver(p); err != nil {
			t.Fatal(err)
		}
	}
	later := c.DeliverBatch(mixedBatch(vips, 1<<17, 4*batchRun), 2)
	for i, r := range append(res, later[:batchRun]...) {
		if r.Err != nil {
			t.Fatalf("packet %d: %v", i, r.Err)
		}
	}
	for i, r := range res {
		if want := rewritten(t, first[i], r.Delivery.DIP); !bytes.Equal(r.Delivery.Packet, want) {
			t.Fatalf("result %d reads %x after later batches, want %x", i, r.Delivery.Packet, want)
		}
	}
}

// TestSampledPacketLeavesCompleteTrace: the sampling decision is taken once
// per packet and every stage honours it, so the ring holds whole pipeline
// traces — never every packet, never a trace with a tier missing — and the
// hop histograms are fed by exactly the packets that were traced.
func TestSampledPacketLeavesCompleteTrace(t *testing.T) {
	mux := []string{"packet-in", "vip-lookup", "ecmp-pick", "encap", "trace-hop", "decap", "trace-hop"}
	nic := mux[1:] // the NIC tier records no packet-in
	cases := []struct {
		name    string
		nicTier bool
		place   func(t *testing.T, c *Cluster, vip packet.Addr)
		hop     func(c *Cluster) *telemetry.Histogram
		seq     []string
		every   int // 0: the default core.New sets
		packets int
		workers int // 0: serial Deliver
	}{
		{name: "hmux", place: onHMux, hop: hopHMux, seq: mux, packets: 1600},
		{name: "smux", place: onSMux, hop: hopSMux, seq: mux, packets: 1600},
		{name: "nmux", nicTier: true, place: onNMux, hop: hopNMux, seq: nic, packets: 1600},
		{name: "hmux/every256", place: onHMux, hop: hopHMux, seq: mux, every: 256, packets: 2560},
		{name: "hmux/batch2", place: onHMux, hop: hopHMux, seq: mux, packets: 1600, workers: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(t)
			if tc.nicTier {
				c = testClusterNMux(t, 4096)
			}
			v := mkVIP(0, "100.0.0.1", "100.0.0.2")
			must(t, c.AddVIP(v))
			tc.place(t, c, v.Addr)
			_, rec := c.Telemetry()
			every := defaultSampleEvery
			if tc.every != 0 {
				every = tc.every
				rec.SetSampleEvery(every)
			}
			setup := rec.Recorded()

			pkts := make([][]byte, tc.packets)
			for i := range pkts {
				pkts[i] = clientPkt(v.Addr, uint32(i))
			}
			if tc.workers > 0 {
				for _, r := range c.DeliverBatch(pkts, tc.workers) {
					must(t, r.Err)
				}
			} else {
				for _, p := range pkts {
					_, err := c.Deliver(p)
					must(t, err)
				}
			}

			var evs []telemetry.Event
			for _, ev := range rec.Snapshot() {
				if ev.Seq >= setup {
					evs = append(evs, ev)
				}
			}
			traces := tc.packets / every
			if len(evs) != traces*len(tc.seq) {
				t.Fatalf("%d packets at 1 in %d left %d events, want %d traces of %d", tc.packets, every, len(evs), traces, len(tc.seq))
			}
			if got := tc.hop(c).Snapshot().Count; got != uint64(traces) {
				t.Errorf("mux hop histogram has %d samples, want one per trace (%d)", got, traces)
			}
			if got := c.dtel.hopAgent.Snapshot().Count; got != uint64(traces) {
				t.Errorf("agent hop histogram has %d samples, want one per trace (%d)", got, traces)
			}
			if tc.workers > 0 {
				// Two workers interleave their traces in the ring; each is
				// still complete, so every kind appears once per trace.
				perKind := map[string]int{}
				for _, ev := range evs {
					perKind[ev.Kind.String()]++
				}
				for _, kind := range tc.seq {
					want := traces
					if kind == "trace-hop" {
						want = 2 * traces
					}
					if perKind[kind] != want {
						t.Errorf("%d %s events, want %d (all kinds: %v)", perKind[kind], kind, want, perKind)
					}
				}
				return
			}
			for i, ev := range evs {
				if want := tc.seq[i%len(tc.seq)]; ev.Kind.String() != want {
					t.Fatalf("event %d is %s, want %s: the ring is not %d repetitions of %v", i, ev.Kind, want, traces, tc.seq)
				}
			}
			for i := 0; i < len(evs); i += len(tc.seq) {
				muxHop, hostHop := evs[i+len(tc.seq)-3], evs[i+len(tc.seq)-1]
				if muxHop.Aux == 0 || muxHop.Aux != hostHop.Aux {
					t.Fatalf("trace %d: hop events carry trace IDs %x and %x, want one shared ID", i/len(tc.seq), muxHop.Aux, hostHop.Aux)
				}
			}
		})
	}
}

func onHMux(t *testing.T, c *Cluster, vip packet.Addr) {
	must(t, placeOn(c, vip, c.Topo.AggID(0, 0)))
}
func onNMux(t *testing.T, c *Cluster, vip packet.Addr) { must(t, c.AssignToNMux(vip)) }
func onSMux(*testing.T, *Cluster, packet.Addr)         {}

func hopHMux(c *Cluster) *telemetry.Histogram { return c.dtel.hopHMux }
func hopNMux(c *Cluster) *telemetry.Histogram { return c.dtel.hopNMux }
func hopSMux(c *Cluster) *telemetry.Histogram { return c.dtel.hopSMux }

// TestAppendContract holds the four forwarding entry points — the Sampled
// forms both orchestrations (core.Cluster, wire.Node) enter the muxes through;
// Process and Receive are their unsampled one-liners — to one contract for a
// non-empty out buffer: the bytes already in it are untouched, and the packet
// returned is exactly this packet's bytes, appended in place.
func TestAppendContract(t *testing.T) {
	vip, dip := packet.MustParseAddr("10.0.0.1"), packet.MustParseAddr("100.0.0.1")
	self := packet.MustParseAddr("172.16.0.1")
	v := &service.VIP{Addr: vip, Backends: []service.Backend{{Addr: dip, Weight: 1}}}
	client := clientPkt(vip, 1)
	encapped, err := packet.Encapsulate(nil, self, dip, client, 64)
	must(t, err)

	hm := hmux.New(hmux.DefaultConfig(self))
	must(t, hm.AddVIP(v))
	nm := nmux.New(nmux.Config{SelfAddr: self, TableSize: 64})
	must(t, nm.AddVIP(v))
	sm := smux.New(smux.DefaultConfig(self))
	must(t, sm.AddVIP(v))
	agent := hostagent.New(dip)
	must(t, agent.RegisterDIP(vip, dip))
	f, err := packet.Parse(client) // every stage is handed the client's flow
	must(t, err)
	hash := ecmp.Hash(f.Tuple)

	cases := []struct {
		name     string
		in, want []byte
		run      func(in, out []byte) ([]byte, error)
	}{
		{"hmux.Process", client, encapped, func(in, out []byte) ([]byte, error) {
			res, err := hm.ProcessSampled(in, out, f, hash, true, new(hmux.Tally))
			return res.Packet, err
		}},
		{"nmux.Process", client, encapped, func(in, out []byte) ([]byte, error) {
			res, err := nm.ProcessSampled(in, out, f, hash, true, new(nmux.Tally))
			return res.Packet, err
		}},
		{"smux.Process", client, encapped, func(in, out []byte) ([]byte, error) {
			res, err := sm.ProcessSampled(in, out, f, hash, true, new(smux.Tally))
			return res.Packet, err
		}},
		{"hostagent.Receive", encapped, rewritten(t, client, dip), func(in, out []byte) ([]byte, error) {
			d, err := agent.ReceiveSampled(in, out, f, hash, true, new(hostagent.Tally))
			return d.Packet, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The prefix is itself a delivered packet, to another DIP, as it
			// is for an arena caller.
			prefix := rewritten(t, clientPkt(vip, 2), packet.MustParseAddr("100.0.0.2"))
			out := append(make([]byte, 0, 512), prefix...)
			got, err := tc.run(tc.in, out)
			must(t, err)
			if !bytes.Equal(got, tc.want) {
				t.Errorf("packet = %x\nwant     %x", got, tc.want)
			}
			if !bytes.Equal(out, prefix) {
				t.Errorf("prefix = %x\nwant     %x", out, prefix)
			}
			if len(got) > 0 && &got[0] != &out[:len(prefix)+1][len(prefix)] {
				t.Error("packet was not appended in place behind the prefix")
			}
		})
	}
}
