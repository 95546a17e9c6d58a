package smux

import (
	"math"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

var (
	vipAddr  = packet.MustParseAddr("10.0.0.1")
	selfAddr = packet.MustParseAddr("192.168.0.1")
)

func backends(addrs ...string) []service.Backend {
	out := make([]service.Backend, len(addrs))
	for i, a := range addrs {
		out[i] = service.Backend{Addr: packet.MustParseAddr(a), Weight: 1}
	}
	return out
}

// processSampled hands ProcessSampled what an orchestration does: the flow it
// parsed at ingress and its hash — and counts the call, as Process does.
func processSampled(m *Mux, pkt, out []byte, sampled bool) (Result, error) {
	f, err := packet.Parse(pkt)
	if err != nil {
		return Result{}, err
	}
	var t Tally
	res, err := m.ProcessSampled(pkt, out, f, ecmp.Hash(f.Tuple), sampled, &t)
	m.tel.ctr.Flush(&t)
	return res, err
}

func vipPacket(i uint32, dstPort uint16) []byte {
	return packet.BuildTCP(packet.FiveTuple{
		Src: packet.Addr(0x14000000 + i), Dst: vipAddr,
		SrcPort: uint16(1024 + i%40000), DstPort: dstPort, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)
}

func TestAddVIPAndProcess(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	bs := backends("100.0.0.1", "100.0.0.2")
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	counts := make(map[packet.Addr]int)
	for i := uint32(0); i < 4000; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Encap]++
		inner, outer, err := packet.Decapsulate(res.Packet)
		if err != nil {
			t.Fatal(err)
		}
		if outer.Src != selfAddr || outer.Dst != res.Encap {
			t.Fatalf("outer header wrong: %+v", outer)
		}
		it, err := packet.ExtractFiveTuple(inner)
		if err != nil || it.Dst != vipAddr {
			t.Fatal("inner packet corrupted")
		}
	}
	for _, b := range bs {
		frac := float64(counts[b.Addr]) / 4000
		if math.Abs(frac-0.5) > 0.05 {
			t.Fatalf("DIP %s got %.3f", b.Addr, frac)
		}
	}
}

func TestProcessUnknownVIP(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	if _, err := m.Process(vipPacket(0, 80), nil); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
}

func TestDuplicateAdd(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	v := &service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := m.AddVIP(v); err != ErrVIPExists {
		t.Fatalf("got %v", err)
	}
	if m.NumVIPs() != 1 || !m.HasVIP(vipAddr) {
		t.Fatal("bookkeeping wrong")
	}
}

func TestRemoveVIPDropsConnections(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 10; i++ {
		if _, err := m.Process(vipPacket(i, 80), nil); err != nil {
			t.Fatal(err)
		}
	}
	if m.ConnStats().Entries != 10 {
		t.Fatalf("connections = %d", m.ConnStats().Entries)
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemove, Addr: vipAddr}); err != nil {
		t.Fatal(err)
	}
	if m.ConnStats().Entries != 0 {
		t.Fatal("connections not dropped with VIP")
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemove, Addr: vipAddr}); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
}

// TestDIPAdditionKeepsConnections is the Ananta property Duet leans on for
// DIP addition (paper §5.2): connection state pins established flows even
// when the hash ring changes.
func TestDIPAdditionKeepsConnections(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3")
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	before := make(map[uint32]packet.Addr)
	for i := uint32(0); i < 2000; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = res.Encap
	}
	// Add a DIP: full rehash of the group, but pinned flows must not move.
	grown := backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4")
	if err := m.UpdateVIP(&service.VIP{Addr: vipAddr, Backends: grown}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 2000; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Encap != before[i] {
			t.Fatalf("flow %d remapped %s→%s after DIP addition", i, before[i], res.Encap)
		}
		if !res.Pinned {
			t.Fatalf("flow %d not served from connection table", i)
		}
	}
	// New flows can land on the new DIP.
	newDIP := packet.MustParseAddr("100.0.0.4")
	found := false
	for i := uint32(10000); i < 14000 && !found; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		found = res.Encap == newDIP
	}
	if !found {
		t.Fatal("no new flow reached the added DIP")
	}
}

func TestUpdateVIPUnknown(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	err := m.UpdateVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")})
	if err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
}

func TestRemoveBackendTerminatesPinnedConns(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	bs := backends("100.0.0.1", "100.0.0.2")
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	victim := packet.MustParseAddr("100.0.0.1")
	pinnedToVictim := 0
	for i := uint32(0); i < 1000; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Encap == victim {
			pinnedToVictim++
		}
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: victim}); err != nil {
		t.Fatal(err)
	}
	if m.ConnStats().Entries != 1000-pinnedToVictim {
		t.Fatalf("connections = %d, want %d", m.ConnStats().Entries, 1000-pinnedToVictim)
	}
	// Re-processing a victim flow gets a surviving DIP.
	res, err := m.Process(vipPacket(0, 80), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encap == victim {
		t.Fatal("flow still mapped to removed DIP")
	}
}

func TestRemoveBackendErrors(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: 1}); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: packet.MustParseAddr("6.6.6.6")}); err == nil {
		t.Fatal("unknown DIP accepted")
	}
}

// TestSharedHashWithHMux is the central migration invariant (paper §3.3.1):
// for the same VIP and backend list, an SMux and an HMux pick the SAME DIP
// for the same 5-tuple, so failover H→S and migration S→H preserve
// connections.
func TestSharedHashWithHMux(t *testing.T) {
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4", "100.0.0.5")
	sm := New(Config{SelfAddr: selfAddr, DefaultMode: steer.ModeStateless})
	hm := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	if err := sm.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	if err := hm.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 5000; i++ {
		tuple, err := packet.ExtractFiveTuple(vipPacket(i, 80))
		if err != nil {
			t.Fatal(err)
		}
		s, err1 := sm.Lookup(tuple)
		h, err2 := hm.Lookup(tuple)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if s != h {
			t.Fatalf("SMux and HMux disagree for %v: %s vs %s", tuple, s, h)
		}
	}
}

func TestPortRules(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	v := &service.VIP{
		Addr:     vipAddr,
		Backends: backends("100.0.0.1"),
		Ports:    []service.PortRule{{Port: 80, Backends: backends("100.0.1.1")}},
	}
	if err := m.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	res, err := m.Process(vipPacket(0, 80), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encap != packet.MustParseAddr("100.0.1.1") {
		t.Fatalf("port rule not applied: %s", res.Encap)
	}
	res, err = m.Process(vipPacket(0, 22), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encap != packet.MustParseAddr("100.0.0.1") {
		t.Fatalf("default set not applied: %s", res.Encap)
	}
}

func TestConnTableBounded(t *testing.T) {
	m := New(Config{SelfAddr: selfAddr, MaxConnections: 100})
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 1000; i++ {
		if _, err := m.Process(vipPacket(i, 80), nil); err != nil {
			t.Fatal(err)
		}
	}
	if m.ConnStats().Entries > 200 {
		t.Fatalf("connection table unbounded: %d", m.ConnStats().Entries)
	}
}

// TestLiveConnectionKeepsPinThroughChurn: a stateful flow that keeps sending
// keeps its DIP however many other flows of its shard come and go. The conn
// table used to carry a second bound beside its entry count, a FIFO log of
// inserts that deleted the oldest logged tuple, live or not, once a shard had
// logged more than twice its share of the cap: the fifth insert into a shard
// capped at two moved the flow here.
func TestLiveConnectionKeepsPinThroughChurn(t *testing.T) {
	m, now := newClocked(Config{SelfAddr: selfAddr, MaxConnections: 32})
	a, b := packet.MustParseAddr("100.0.0.1"), packet.MustParseAddr("100.0.0.2")
	grown := steer.NewEntry(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}, steer.ModeStateful)
	var live packet.FiveTuple
	li := uint32(0)
	for ; ; li++ { // a flow the grown backend set moves to b
		if d, _ := grown.DIP(tupleN(li), ecmp.Hash(tupleN(li))); d == b {
			live = tupleN(li)
			break
		}
	}
	shardOf := func(tu packet.FiveTuple) uint64 { return ecmp.Hash(tu) >> 48 & 15 }
	var others []uint32
	for j := uint32(0); len(others) < 10; j++ {
		if j != li && shardOf(tupleN(j)) == shardOf(live) {
			others = append(others, j)
		}
	}

	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if res, err := m.Process(packet.BuildTCP(live, packet.TCPSyn, nil), nil); err != nil || res.Encap != a {
		t.Fatalf("first packet: %+v, %v", res, err)
	}
	if err := m.UpdateVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	for k, j := range others {
		if _, err := m.Process(vipPacket(j, 80), nil); err != nil {
			t.Fatal(err)
		}
		// The other flow goes idle and expires; the live one keeps sending.
		for step := 0; step < 5; step++ {
			*now += DefaultConnIdle / 4
			m.Tick()
			res, err := m.Process(packet.BuildTCP(live, packet.TCPAck, nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Encap != a || !res.Pinned {
				t.Fatalf("round %d: the live flow moved to %s (pinned %v) after %d inserts in its shard", k, res.Encap, res.Pinned, k+2)
			}
			if n := m.ConnStats().Entries; step == 0 && n != 2 {
				t.Fatalf("round %d: %d connections pinned, want the live flow and the new one", k, n)
			}
		}
	}
}

func TestDisableConnTracking(t *testing.T) {
	m := New(Config{SelfAddr: selfAddr, DefaultMode: steer.ModeStateless})
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		if _, err := m.Process(vipPacket(i, 80), nil); err != nil {
			t.Fatal(err)
		}
	}
	if m.ConnStats().Entries != 0 {
		t.Fatal("connection state recorded in stateless mode")
	}
}

func TestCapacityDefault(t *testing.T) {
	m := New(Config{SelfAddr: selfAddr})
	if m.cfg.CapacityPPS != DefaultCapacityPPS {
		t.Fatalf("capacity = %v", m.cfg.CapacityPPS)
	}
	if m.Self() != selfAddr {
		t.Fatal("Self wrong")
	}
}

func TestLookupDoesNotMutate(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	tuple, _ := packet.ExtractFiveTuple(vipPacket(0, 80))
	if _, err := m.Lookup(tuple); err != nil {
		t.Fatal(err)
	}
	if m.ConnStats().Entries != 0 {
		t.Fatal("Lookup created connection state")
	}
	if _, err := m.Lookup(packet.FiveTuple{Dst: packet.MustParseAddr("9.9.9.9")}); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
}

func BenchmarkProcess(b *testing.B) {
	m := New(DefaultConfig(selfAddr))
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4")
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		b.Fatal(err)
	}
	pkt := vipPacket(7, 80)
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	for i := 0; i < b.N; i++ {
		if _, err := m.Process(pkt, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProcessTelemetry checks the counters and trace events the SMux emits.
func TestProcessTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	m := New(DefaultConfig(selfAddr))
	m.SetTelemetry(reg, rec, 9)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	pkt := vipPacket(1, 80)
	if _, err := processSampled(m, pkt, nil, true); err != nil {
		t.Fatal(err)
	}
	if _, err := processSampled(m, pkt, nil, true); err != nil { // pinned now
		t.Fatal(err)
	}
	if _, err := m.Process([]byte{1, 2}, nil); err == nil {
		t.Fatal("malformed packet accepted")
	}
	other := packet.BuildTCP(packet.FiveTuple{
		Src: packet.MustParseAddr("20.0.0.9"), Dst: packet.MustParseAddr("10.9.9.9"),
		SrcPort: 1000, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)
	if _, err := m.Process(other, nil); err != ErrVIPNotFound {
		t.Fatalf("unknown VIP: err = %v", err)
	}
	want := map[string]uint64{
		"smux.packets":           4,
		"smux.encapped":          2,
		"smux.conn.hits":         1,
		"smux.conn.misses":       1,
		"smux.conn.inserts":      1,
		"smux.drops.malformed":   1,
		"smux.drops.unknown_vip": 1,
	}
	for name, w := range want {
		if got := reg.Counter(name).Value(); got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
	if got := m.ConnStats().Entries; got != 1 {
		t.Errorf("connections = %d, want 1", got)
	}
	// First packet leaves a full sampled trace; second marks the pick pinned.
	var picks []uint64
	for _, e := range rec.Snapshot() {
		if e.Kind == telemetry.KindECMPPick {
			picks = append(picks, e.Aux)
			if e.Node != 9 {
				t.Errorf("pick event node = %d, want 9", e.Node)
			}
		}
	}
	if len(picks) != 2 || picks[0] != 0 || picks[1] != 1 {
		t.Errorf("pick pinned-aux sequence = %v, want [0 1]", picks)
	}
}

// TestProcessZeroAllocWithTelemetry: full instrumentation (sampling on) must
// not add allocations to the steady-state packet path.
func TestProcessZeroAllocWithTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(256)
	rec.SetSampleEvery(4)
	m := New(DefaultConfig(selfAddr))
	m.SetTelemetry(reg, rec, 1)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	pkt := vipPacket(1, 80)
	buf := make([]byte, 0, 256)
	if _, err := m.Process(pkt, buf[:0]); err != nil { // warm: insert conn
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := processSampled(m, pkt, buf[:0], rec.Sample()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Process with telemetry: %v allocs/op, want 0", allocs)
	}
}

// TestDropReasonLabels covers the two drop paths TestProcessTelemetry does
// not reach: an ECMP group emptied by backend removal, and an encapsulation
// overflow. Each must increment exactly its labeled counter and leave a
// KindDrop trace event.
func TestDropReasonLabels(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	m := New(DefaultConfig(selfAddr))
	m.SetTelemetry(reg, rec, 6)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}

	t.Run("no_backend", func(t *testing.T) {
		if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: packet.MustParseAddr("100.0.0.1")}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Process(vipPacket(1, 80), nil); err == nil {
			t.Fatal("empty ECMP group must drop")
		}
		if got := reg.Counter("smux.drops.no_backend").Value(); got != 1 {
			t.Fatalf("smux.drops.no_backend = %d, want 1", got)
		}
	})

	t.Run("encap_error", func(t *testing.T) {
		if err := m.UpdateVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.2")}); err != nil {
			t.Fatal(err)
		}
		// 20 (IP) + 20 (TCP) + 65480 payload = 65520 bytes: valid IPv4,
		// but 20 more bytes of outer header overflow the length field.
		jumbo := packet.BuildTCP(packet.FiveTuple{
			Src: packet.MustParseAddr("30.0.0.1"), Dst: vipAddr,
			SrcPort: 1024, DstPort: 80, Proto: packet.ProtoTCP,
		}, packet.TCPSyn, make([]byte, 65480))
		if _, err := m.Process(jumbo, nil); err == nil {
			t.Fatal("oversized packet must fail encapsulation")
		}
		if got := reg.Counter("smux.drops.encap_error").Value(); got != 1 {
			t.Fatalf("smux.drops.encap_error = %d, want 1", got)
		}
	})

	drops := 0
	for _, e := range rec.Snapshot() {
		if e.Kind == telemetry.KindDrop {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("recorded %d drop events, want 2", drops)
	}
}
