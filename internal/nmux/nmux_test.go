package nmux

import (
	"errors"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

func testVIP(last byte, ndips int) *service.VIP {
	v := &service.VIP{Addr: packet.AddrFrom4(10, 0, 0, last)}
	for i := 0; i < ndips; i++ {
		v.Backends = append(v.Backends, service.Backend{
			Addr: packet.AddrFrom4(100, last, byte(i), 1), Weight: 1,
		})
	}
	return v
}

func tcpPacket(t *testing.T, tuple packet.FiveTuple) []byte {
	t.Helper()
	return packet.BuildTCP(tuple, packet.TCPSyn, nil)
}

func flowTuple(vip packet.Addr, seq uint32) packet.FiveTuple {
	return packet.FiveTuple{
		Src:     packet.AddrFrom4(30, byte(seq>>16), byte(seq>>8), byte(seq)),
		Dst:     vip,
		SrcPort: uint16(1024 + seq%50000),
		DstPort: 80,
		Proto:   packet.ProtoTCP,
	}
}

func TestProcessHitMissAndPinning(t *testing.T) {
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1)})
	v := testVIP(1, 4)
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}

	tuple := flowTuple(v.Addr, 7)
	pkt := tcpPacket(t, tuple)
	res, err := m.Process(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pinned {
		t.Fatal("first packet of a flow must not be pinned")
	}
	first := res.Encap
	res2, err := m.Process(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Pinned || res2.Encap != first {
		t.Fatalf("second packet: pinned=%v encap=%s, want pinned to %s", res2.Pinned, res2.Encap, first)
	}
	if got := m.Stats().Flows; got != 1 {
		t.Fatalf("Flows() = %d, want 1", got)
	}

	// Unknown VIP is a miss, not a drop.
	other := tcpPacket(t, flowTuple(packet.AddrFrom4(10, 0, 0, 99), 1))
	if _, err := m.Process(other, nil); !errors.Is(err, ErrNotOurVIP) {
		t.Fatalf("unknown VIP: err = %v, want ErrNotOurVIP", err)
	}
}

func TestEncapMatchesSMux(t *testing.T) {
	// An NMux paired with an SMux (same self address) must produce
	// byte-identical encapsulated output for the same flow — the property
	// that makes tier fall-through invisible to backends.
	self := packet.AddrFrom4(192, 168, 0, 1)
	nm := New(Config{SelfAddr: self})
	sm := smux.New(smux.Config{SelfAddr: self})
	v := testVIP(1, 4)
	if err := nm.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 64; seq++ {
		pkt := tcpPacket(t, flowTuple(v.Addr, seq))
		nres, err := nm.Process(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := sm.Process(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(nres.Packet) != string(sres.Packet) {
			t.Fatalf("seq %d: NMux and SMux encap differ", seq)
		}
	}
}

func TestWildcardAdmission(t *testing.T) {
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1), TableSize: 12})
	// Each VIP costs 1 + 4 = 5 entries; two fit (10), a third does not.
	if err := m.AddVIP(testVIP(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVIP(testVIP(2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVIP(testVIP(3, 4)); !errors.Is(err, ErrTableFull) {
		t.Fatalf("third AddVIP: err = %v, want ErrTableFull", err)
	}
	st := m.Stats()
	if st.Wildcard != 10 || st.Cap != 12 || st.VIPs != 2 {
		t.Fatalf("Stats = %+v, want wildcard 10 cap 12 vips 2", st)
	}
	if err := m.AddVIP(testVIP(4, 1)); err != nil {
		t.Fatalf("a 2-entry VIP with 2 entries free: %v", err)
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemove, Addr: testVIP(4, 1).Addr}); err != nil {
		t.Fatal(err)
	}

	// UpdateVIP re-checks the budget for the new cost.
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpUpdate, VIP: testVIP(1, 7)}); !errors.Is(err, ErrTableFull) {
		t.Fatalf("growing update: err = %v, want ErrTableFull", err)
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpUpdate, VIP: testVIP(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Wildcard != 8 {
		t.Fatalf("wildcard after shrink = %d, want 8", st.Wildcard)
	}

	// RemoveVIP releases the entries.
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemove, Addr: testVIP(2, 4).Addr}); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Wildcard != 3 {
		t.Fatalf("wildcard after removal = %d, want 3", st.Wildcard)
	}
}

// TestApplyBatchAdmitsEachOpAlone: a batch is admitted op by op against what
// the ops before it left — a removal frees entries a later add may use, a VIP
// that does not fit fails alone with ErrTableFull — and publishes one
// wildcard-table generation, none when every op fails.
func TestApplyBatchAdmitsEachOpAlone(t *testing.T) {
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1), TableSize: 12})
	if err := m.AddVIP(testVIP(1, 4)); err != nil { // 5 entries
		t.Fatal(err)
	}
	gen := m.Stats().Generation
	ops := []steer.Op{
		{Kind: steer.OpSet, VIP: testVIP(2, 4)},          // 10 of 12
		{Kind: steer.OpSet, VIP: testVIP(3, 4)},          // 15: does not fit
		{Kind: steer.OpRemove, Addr: testVIP(1, 4).Addr}, // 5
		{Kind: steer.OpAdd, VIP: testVIP(4, 5)},          // 11
		{Kind: steer.OpUpdate, VIP: testVIP(5, 1)},       // absent
		{Kind: steer.OpMode, Addr: testVIP(2, 4).Addr},   // not a NIC op
	}
	m.Apply(ops)
	for i, want := range []error{nil, ErrTableFull, nil, nil, ErrVIPNotFound} {
		if !errors.Is(ops[i].Err, want) {
			t.Fatalf("op %d: %v, want %v", i, ops[i].Err, want)
		}
	}
	if ops[5].Err == nil {
		t.Fatal("a mode op programmed the NIC table")
	}
	st := m.Stats()
	if st.Wildcard != 11 || st.VIPs != 2 || st.Generation != gen+1 {
		t.Fatalf("Stats = %+v, want wildcard 11, 2 VIPs, generation %d", st, gen+1)
	}
	m.Apply([]steer.Op{{Kind: steer.OpAdd, VIP: testVIP(2, 4)}, {Kind: steer.OpRemove, Addr: testVIP(1, 4).Addr}})
	if m.Stats().Generation != gen+1 {
		t.Fatal("a batch of failed ops published a generation")
	}
}

func TestFlowBudgetRejection(t *testing.T) {
	// Table of 8: VIP wildcard costs 1+2=3, leaving 5 flow slots. The 6th
	// distinct flow is served stateless, not dropped and not evicting.
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1), TableSize: 8})
	reg := telemetry.NewRegistry()
	m.SetTelemetry(reg, nil, 1)
	v := testVIP(1, 2)
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 10; seq++ {
		if _, err := m.Process(tcpPacket(t, flowTuple(v.Addr, seq)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().Flows; got != 5 {
		t.Fatalf("Flows() = %d, want 5 (budget = 8 - 3)", got)
	}
	if st := m.Stats(); st.Used != 8 {
		t.Fatalf("Used = %d, want table exactly full at 8", st.Used)
	}
	if got := reg.Counter("nmux.flow.rejected_full").Value(); got != 5 {
		t.Fatalf("rejected_full = %d, want 5", got)
	}
	// Overflow flows still resolve deterministically via the shared hash.
	over := flowTuple(v.Addr, 9)
	d1, err := m.Lookup(over)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Process(tcpPacket(t, over), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pinned || res.Encap != d1 {
		t.Fatalf("overflow flow: pinned=%v encap=%s, want stateless %s", res.Pinned, res.Encap, d1)
	}
}

func TestReprogramKeepsPinnedFlows(t *testing.T) {
	// Connections straddling a table reprogram must not misroute: flows
	// pinned before UpdateVIP keep their DIP afterwards.
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1)})
	v := testVIP(1, 4)
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	const flows = 32
	before := make(map[uint32]packet.Addr, flows)
	for seq := uint32(0); seq < flows; seq++ {
		res, err := m.Process(tcpPacket(t, flowTuple(v.Addr, seq)), nil)
		if err != nil {
			t.Fatal(err)
		}
		before[seq] = res.Encap
	}
	// Reprogram with the backend order reversed (hash→member mapping shifts).
	upd := &service.VIP{Addr: v.Addr}
	for i := len(v.Backends) - 1; i >= 0; i-- {
		upd.Backends = append(upd.Backends, v.Backends[i])
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpUpdate, VIP: upd}); err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < flows; seq++ {
		res, err := m.Process(tcpPacket(t, flowTuple(v.Addr, seq)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pinned || res.Encap != before[seq] {
			t.Fatalf("flow %d remapped across reprogram: pinned=%v %s → %s",
				seq, res.Pinned, before[seq], res.Encap)
		}
	}
}

func TestRemoveBackendDropsPinnedFlows(t *testing.T) {
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1)})
	v := testVIP(1, 4)
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	victim := v.Backends[0].Addr
	pinnedToVictim := 0
	for seq := uint32(0); seq < 64; seq++ {
		res, err := m.Process(tcpPacket(t, flowTuple(v.Addr, seq)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Encap == victim {
			pinnedToVictim++
		}
	}
	if pinnedToVictim == 0 {
		t.Fatal("no flows landed on the victim DIP; widen the flow sweep")
	}
	total := m.Stats().Flows
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: v.Addr, DIP: victim}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Flows; got != total-pinnedToVictim {
		t.Fatalf("Flows() = %d after RemoveBackend, want %d", got, total-pinnedToVictim)
	}
	// Surviving flows stay pinned; no packet maps to the dead DIP anymore.
	for seq := uint32(0); seq < 64; seq++ {
		res, err := m.Process(tcpPacket(t, flowTuple(v.Addr, seq)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Encap == victim {
			t.Fatalf("flow %d still mapped to removed DIP", seq)
		}
	}
	// Wildcard accounting is unchanged (slot kept dead, like the HMux).
	if st := m.Stats(); st.Wildcard != Cost(v) {
		t.Fatalf("Wildcard = %d after RemoveBackend, want %d", st.Wildcard, Cost(v))
	}
}

func TestRemoveVIPDropsFlowsAndMisses(t *testing.T) {
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1)})
	v := testVIP(1, 4)
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	pkt := tcpPacket(t, flowTuple(v.Addr, 3))
	if _, err := m.Process(pkt, nil); err != nil {
		t.Fatal(err)
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemove, Addr: v.Addr}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Flows; got != 0 {
		t.Fatalf("Flows() = %d after RemoveVIP, want 0", got)
	}
	if _, err := m.Process(pkt, nil); !errors.Is(err, ErrNotOurVIP) {
		t.Fatalf("post-removal err = %v, want ErrNotOurVIP", err)
	}
}

func TestDropCounters(t *testing.T) {
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1)})
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	m.SetTelemetry(reg, rec, 7)
	v := testVIP(1, 1)
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: v.Addr, DIP: v.Backends[0].Addr}); err != nil {
		t.Fatal(err)
	}

	if _, err := m.Process([]byte{0xde, 0xad}, nil); err == nil {
		t.Fatal("malformed packet should error")
	}
	if got := reg.Counter("nmux.drops.malformed").Value(); got != 1 {
		t.Fatalf("drops.malformed = %d, want 1", got)
	}
	if _, err := m.Process(tcpPacket(t, flowTuple(v.Addr, 1)), nil); err == nil {
		t.Fatal("empty group should error")
	}
	if got := reg.Counter("nmux.drops.no_backend").Value(); got != 1 {
		t.Fatalf("drops.no_backend = %d, want 1", got)
	}
	// A table miss increments misses but records no drop.
	if _, err := m.Process(tcpPacket(t, flowTuple(packet.AddrFrom4(10, 0, 0, 99), 1)), nil); !errors.Is(err, ErrNotOurVIP) {
		t.Fatal("want ErrNotOurVIP")
	}
	if got := reg.Counter("nmux.misses").Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
}

func TestPortRules(t *testing.T) {
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1), TableSize: 16})
	alt := []service.Backend{{Addr: packet.AddrFrom4(100, 9, 9, 1), Weight: 1}}
	v := testVIP(1, 2)
	v.Ports = []service.PortRule{{Port: 443, Backends: alt}}
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	// Cost covers the port rule: 1+2 default + 1+1 port = 5.
	if st := m.Stats(); st.Wildcard != 5 {
		t.Fatalf("Wildcard = %d, want 5", st.Wildcard)
	}
	tuple := flowTuple(v.Addr, 1)
	tuple.DstPort = 443
	res, err := m.Process(tcpPacket(t, tuple), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encap != alt[0].Addr {
		t.Fatalf("port 443 mapped to %s, want %s", res.Encap, alt[0].Addr)
	}
}

func TestProcessZeroAllocWithTelemetry(t *testing.T) {
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1)})
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1024)
	m.SetTelemetry(reg, rec, 1)
	v := testVIP(1, 4)
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	pkt := tcpPacket(t, flowTuple(v.Addr, 1))
	buf := make([]byte, 0, 2048)
	if _, err := m.Process(pkt, buf[:0]); err != nil { // warm: pin the flow
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := m.Process(pkt, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %.1f times per packet, want 0", allocs)
	}
}

func TestConcurrentProcessAndReprogram(t *testing.T) {
	m := New(Config{SelfAddr: packet.AddrFrom4(192, 168, 0, 1)})
	v := testVIP(1, 4)
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			upd := testVIP(1, 4)
			if i%2 == 1 {
				upd.Backends = upd.Backends[:3]
			}
			if err := steer.One(m.Apply, steer.Op{Kind: steer.OpUpdate, VIP: upd}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for seq := uint32(0); seq < 2000; seq++ {
		if _, err := m.Process(tcpPacket(t, flowTuple(v.Addr, seq%64)), nil); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
