package smux

import (
	"bytes"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

func tupleN(i uint32) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.Addr(0x14000000 + i), Dst: vipAddr,
		SrcPort: uint16(1024 + i%40000), DstPort: 80, Proto: packet.ProtoTCP,
	}
}

func ackPacket(i uint32) []byte {
	return packet.BuildTCP(tupleN(i), packet.TCPAck, nil)
}

func finPacket(i uint32) []byte {
	return packet.BuildTCP(tupleN(i), packet.TCPFin|packet.TCPAck, nil)
}

// newClocked builds a mux on a virtual clock and returns the mux plus the
// clock-advance function.
func newClocked(cfg Config) (*Mux, *float64) {
	now := new(float64)
	cfg.Clock = func() float64 { return *now }
	return New(cfg), now
}

// TestIdleEviction is the satellite fix: conn-table entries for dead flows
// used to live forever; now they age out on the injected clock.
func TestIdleEviction(t *testing.T) {
	m, now := newClocked(DefaultConfig(selfAddr))
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		if _, err := m.Process(vipPacket(i, 80), nil); err != nil {
			t.Fatal(err)
		}
	}
	if m.ConnStats().Entries != 100 {
		t.Fatalf("connections = %d", m.ConnStats().Entries)
	}
	// Half the flows keep talking past the idle window; half go silent.
	*now += DefaultConnIdle - 1
	m.Tick()
	for i := uint32(0); i < 50; i++ {
		if _, err := m.Process(ackPacket(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	*now += 2 // past the silent flows' deadline, within the refreshed ones'
	m.Tick()
	if got := m.ConnStats().Entries; got != 50 {
		t.Fatalf("connections after idle sweep = %d, want 50", got)
	}
	*now += DefaultConnIdle + 1
	m.Tick()
	if got := m.ConnStats().Entries; got != 0 {
		t.Fatalf("connections after full idle = %d, want 0", got)
	}
}

// TestFinRstLinger: a FIN/RST collapses the entry's lifetime to the linger
// window instead of the full idle timeout.
func TestFinRstLinger(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, now := newClocked(DefaultConfig(selfAddr))
	m.SetTelemetry(reg, nil, 1)
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Process(vipPacket(0, 80), nil); err != nil { // SYN: insert
		t.Fatal(err)
	}
	if _, err := m.Process(vipPacket(1, 80), nil); err != nil { // stays open
		t.Fatal(err)
	}
	if _, err := m.Process(finPacket(0), nil); err != nil { // close flow 0
		t.Fatal(err)
	}
	*now += DefaultFinLinger + 1
	m.Tick()
	if got := m.ConnStats().Entries; got != 1 {
		t.Fatalf("connections after FIN linger = %d, want 1", got)
	}
	if got := reg.Counter("smux.conn.idle_evictions").Value(); got != 1 {
		t.Fatalf("idle_evictions = %d, want 1", got)
	}
	if got := m.ConnStats().Entries; got != 1 {
		t.Fatalf("connections = %d, want 1", got)
	}
	// An RST-first flow never outlives the linger either.
	rst := packet.BuildTCP(tupleN(9), packet.TCPRst, nil)
	if _, err := m.Process(rst, nil); err != nil {
		t.Fatal(err)
	}
	*now += DefaultFinLinger + 1
	m.Tick()
	if got := m.ConnStats().Entries; got != 1 {
		t.Fatalf("RST flow survived linger: connections = %d", got)
	}
}

// TestStatelessMode: zero per-flow writes, resolution identical to the
// steer table.
func TestStatelessMode(t *testing.T) {
	m := New(Config{SelfAddr: selfAddr, DefaultMode: steer.ModeStateless})
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 200; i++ {
		res, err := m.Process(vipPacket(i, 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != steer.ModeStateless || res.Pinned {
			t.Fatalf("res = %+v", res)
		}
		want, err := m.Steer().Lookup(tupleN(i))
		if err != nil || want != res.Encap {
			t.Fatalf("flow %d: steer %s vs process %s (%v)", i, want, res.Encap, err)
		}
	}
	if m.ConnStats().Entries != 0 || m.ConnStats().Overlay != 0 {
		t.Fatal("stateless mode recorded per-flow state")
	}
}

// TestHybridPinsOnlyStraddlingFlows: across a DIP re-addition epoch, hybrid
// pins exactly the flows whose DIP differs between generations — established
// flows keep the old mapping, fresh SYNs land on the new generation.
func TestHybridPinsOnlyStraddlingFlows(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, now := newClocked(Config{SelfAddr: selfAddr, DefaultMode: steer.ModeHybrid})
	m.SetTelemetry(reg, nil, 1)
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3")
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	*now += steer.DefaultDrainWindow + 1
	m.Tick() // drain the AddVIP epoch so the baseline is quiescent

	const flows = 2000
	before := make([]packet.Addr, flows)
	for i := uint32(0); i < flows; i++ {
		res, err := m.Process(ackPacket(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = res.Encap
	}
	if m.ConnStats().Overlay != 0 {
		t.Fatalf("pins before churn: %d", m.ConnStats().Overlay)
	}

	// Churn: lose a DIP, then re-add it (new epoch, drain opens). Flows that
	// hashed to the victim remap at removal (counted out, as in stateful
	// mode, where their conns are dropped); everyone else must hold still.
	victim := bs[1].Addr
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: victim}); err != nil {
		t.Fatal(err)
	}
	afterRemove := make([]packet.Addr, flows)
	for i := uint32(0); i < flows; i++ {
		res, err := m.Process(ackPacket(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		afterRemove[i] = res.Encap
		if before[i] != victim && res.Encap != before[i] {
			t.Fatalf("flow %d remapped %s→%s at removal", i, before[i], res.Encap)
		}
	}
	if err := m.UpdateVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	// Established flows: none may move, even the ones whose table slot just
	// flipped back to the victim.
	straddlers := 0
	for i := uint32(0); i < flows; i++ {
		res, err := m.Process(ackPacket(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Encap != afterRemove[i] {
			t.Fatalf("flow %d broke across re-add epoch: %s→%s", i, afterRemove[i], res.Encap)
		}
		if before[i] == victim {
			straddlers++
		}
	}
	if straddlers == 0 {
		t.Fatal("test vacuous: no flow hashed to the victim")
	}
	pins := m.ConnStats().Overlay
	if pins == 0 || pins > straddlers {
		t.Fatalf("overlay pins = %d, want (0, %d]", pins, straddlers)
	}
	if got := int(reg.Counter("smux.overlay.pins").Value()); got != pins {
		t.Fatalf("overlay.pins counter = %d, want %d", got, pins)
	}
	// A pinned flow's next packet is served from the overlay, and counted.
	hits := reg.Counter("smux.overlay.hits").Value()
	for i := uint32(0); i < flows; i++ {
		if _, err := m.Process(ackPacket(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("smux.overlay.hits").Value() - hits; got != uint64(pins) {
		t.Fatalf("overlay.hits rose by %d over one packet per flow, want one per pin (%d)", got, pins)
	}

	// A fresh SYN on a straddling tuple belongs to the new generation.
	var strad uint32
	found := false
	for i := uint32(0); i < flows; i++ {
		if before[i] == victim {
			strad, found = i, true
			break
		}
	}
	if !found {
		t.Fatal("no straddler")
	}
	fresh := packet.BuildTCP(packet.FiveTuple{
		Src: tupleN(strad).Src, Dst: vipAddr, SrcPort: 39999, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)
	sres, err := m.Process(fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Steer().Lookup(packet.FiveTuple{
		Src: tupleN(strad).Src, Dst: vipAddr, SrcPort: 39999, DstPort: 80, Proto: packet.ProtoTCP,
	})
	if sres.Encap != want {
		t.Fatalf("fresh SYN served %s, live table says %s", sres.Encap, want)
	}

	// Pinned flows survive the drain window's end, then age out once idle;
	// pins whose DIP converged back to the table free up at the sweep.
	*now += steer.DefaultDrainWindow + 1
	m.Tick()
	if m.ConnStats().Overlay == 0 {
		t.Fatal("active pins swept with the drain")
	}
	*now += DefaultOverlayTTL + 1
	m.Tick()
	if got := m.ConnStats().Overlay; got != 0 {
		t.Fatalf("overlay pins after idle = %d, want 0", got)
	}
}

// TestEncapByteIdentical: for flows unaffected by churn, all three modes
// produce byte-identical encapsulated output — the acceptance criterion that
// makes mode changes invisible on the wire.
func TestEncapByteIdentical(t *testing.T) {
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4")
	victim := bs[2].Addr
	muxes := map[steer.Mode]*Mux{}
	for _, mode := range steer.Modes() {
		m := New(Config{SelfAddr: selfAddr, DefaultMode: mode})
		if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
			t.Fatal(err)
		}
		muxes[mode] = m
	}
	compare := func(stage string) {
		t.Helper()
		for i := uint32(0); i < 1500; i++ {
			if d, err := muxes[steer.ModeStateful].Steer().Lookup(tupleN(i)); err != nil || d == victim {
				continue // affected flow (or removed-epoch miss): exempt
			}
			pkt := ackPacket(i)
			var ref []byte
			for _, mode := range steer.Modes() {
				res, err := muxes[mode].Process(pkt, nil)
				if err != nil {
					t.Fatalf("%s flow %d mode %s: %v", stage, i, mode, err)
				}
				if ref == nil {
					ref = append([]byte(nil), res.Packet...)
				} else if !bytes.Equal(ref, res.Packet) {
					t.Fatalf("%s flow %d: mode %s output differs", stage, i, mode)
				}
			}
		}
	}
	compare("baseline")
	for _, m := range muxes {
		if err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vipAddr, DIP: victim}); err != nil {
			t.Fatal(err)
		}
	}
	compare("after-remove")
	for _, m := range muxes {
		if err := m.UpdateVIP(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
			t.Fatal(err)
		}
	}
	compare("after-readd")
}

func TestSetVIPMode(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpMode, Addr: vipAddr, Mode: steer.ModeHybrid}); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.ModeOf(vipAddr); !ok || mode != steer.ModeStateful {
		t.Fatalf("default mode = %v, %v", mode, ok)
	}
	if err := steer.One(m.Apply, steer.Op{Kind: steer.OpMode, Addr: vipAddr, Mode: steer.ModeStateless}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Process(vipPacket(0, 80), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != steer.ModeStateless || m.ConnStats().Entries != 0 {
		t.Fatalf("mode switch not effective: %+v, conns=%d", res, m.ConnStats().Entries)
	}
}

// TestConnStats: the occupancy snapshot counts every pin, and its Bytes are
// the tables' arrays exactly — each shard's 8 slots, doubled until its pins
// fill at most 7/8, at 33 B a slot — after inserts that doubled every shard.
func TestConnStats(t *testing.T) {
	m := New(DefaultConfig(selfAddr))
	if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	const n = 400 // ~25 a shard
	var perShard [16]int
	for i := uint32(0); i < n; i++ {
		if _, err := m.Process(vipPacket(i, 80), nil); err != nil {
			t.Fatal(err)
		}
		perShard[ecmp.Hash(tupleN(i))>>48&15]++
	}
	st := m.ConnStats()
	if st.Entries != n {
		t.Fatalf("entries = %d", st.Entries)
	}
	if st.ShardMax < n/16 || st.ShardMax > n { // 16 shards
		t.Fatalf("shard max = %d", st.ShardMax)
	}
	want := int64(16 * 8 * 33) // the empty overlay
	for _, k := range perShard {
		if k < 8 {
			t.Fatalf("a shard of %d pins never doubled: %v", k, perShard)
		}
		slots := 8
		for k > slots-slots/8 {
			slots *= 2
		}
		want += int64(slots * 33)
	}
	if st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
	if st.OverlayCap != DefaultMaxOverlay {
		t.Fatalf("overlay cap = %d", st.OverlayCap)
	}
}

// TestProcessZeroAllocModes: the stateless and hybrid steady-state packet
// paths must not allocate, with telemetry on.
func TestProcessZeroAllocModes(t *testing.T) {
	for _, mode := range []steer.Mode{steer.ModeStateless, steer.ModeHybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			rec := telemetry.NewRecorder(256)
			rec.SetSampleEvery(4)
			m := New(Config{SelfAddr: selfAddr, DefaultMode: mode})
			m.SetTelemetry(reg, rec, 1)
			if err := m.AddVIP(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2")}); err != nil {
				t.Fatal(err)
			}
			pkt := ackPacket(3)
			buf := make([]byte, 0, 256)
			if _, err := m.Process(pkt, buf[:0]); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(500, func() {
				if _, err := processSampled(m, pkt, buf[:0], rec.Sample()); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Process (%s): %v allocs/op, want 0", mode, allocs)
			}
		})
	}
}
