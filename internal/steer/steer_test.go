package steer

import (
	"fmt"
	"runtime"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/service"
)

var vipAddr = packet.MustParseAddr("10.0.0.1")

func backends(addrs ...string) []service.Backend {
	out := make([]service.Backend, len(addrs))
	for i, a := range addrs {
		out[i] = service.Backend{Addr: packet.MustParseAddr(a), Weight: 1}
	}
	return out
}

func tupleN(i uint32) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.Addr(0x14000000 + i), Dst: vipAddr,
		SrcPort: uint16(1024 + i%40000), DstPort: 80, Proto: packet.ProtoTCP,
	}
}

func mustAdd(t *testing.T, tab *Table, v *service.VIP) {
	t.Helper()
	if err := tab.Add(v); err != nil {
		t.Fatal(err)
	}
}

// TestLookupMatchesECMPGroup: the table's lookup must pick what the
// reference group (refgroup_test.go) picks for the same flow hash — that
// identity is what keeps cross-tier fall-through byte-identical.
func TestLookupMatchesECMPGroup(t *testing.T) {
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4", "100.0.0.5")
	tab := NewTable(Config{})
	mustAdd(t, tab, &service.VIP{Addr: vipAddr, Backends: bs})

	g := refGroup(bs)
	for i := uint32(0); i < 5000; i++ {
		tu := tupleN(i)
		got, err := tab.Lookup(tu)
		if err != nil {
			t.Fatal(err)
		}
		if want := bs[g.SlotMember(int(ecmp.Hash(tu)%Slots))].Addr; got != want {
			t.Fatalf("tuple %d: steer %s, group %s", i, got, want)
		}
	}
}

// TestRemoveBackendResilient: removing a DIP must remap only the flows that
// hashed to it (paper §5.1, Broadcom resilient hashing).
func TestRemoveBackendResilient(t *testing.T) {
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4")
	tab := NewTable(Config{})
	mustAdd(t, tab, &service.VIP{Addr: vipAddr, Backends: bs})
	victim := bs[1].Addr

	before := make(map[uint32]packet.Addr)
	for i := uint32(0); i < 4000; i++ {
		d, err := tab.Lookup(tupleN(i))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = d
	}
	if err := One(tab.Apply, Op{Kind: OpRemoveDIP, Addr: vipAddr, DIP: victim}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4000; i++ {
		d, err := tab.Lookup(tupleN(i))
		if err != nil {
			t.Fatal(err)
		}
		if before[i] == victim {
			if d == victim {
				t.Fatalf("flow %d still mapped to removed DIP", i)
			}
			continue
		}
		if d != before[i] {
			t.Fatalf("flow %d remapped %s→%s though its DIP survived", i, before[i], d)
		}
	}
}

// TestRemoveReAddConverges: because the full rebuild is deterministic in the
// backend list, remove + re-add returns the table to its exact original slot
// assignment. Flows never mapped to the churned DIP never remap — the
// property that makes stateless mode safe under resilient churn.
func TestRemoveReAddConverges(t *testing.T) {
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3")
	tab := NewTable(Config{})
	mustAdd(t, tab, &service.VIP{Addr: vipAddr, Backends: bs})

	orig := make(map[uint32]packet.Addr)
	for i := uint32(0); i < 3000; i++ {
		orig[i], _ = tab.Lookup(tupleN(i))
	}
	e0 := tab.Epoch()
	if err := One(tab.Apply, Op{Kind: OpRemoveDIP, Addr: vipAddr, DIP: bs[2].Addr}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Update(&service.VIP{Addr: vipAddr, Backends: bs}); err != nil {
		t.Fatal(err)
	}
	if tab.Epoch() != e0+2 {
		t.Fatalf("epoch = %d, want %d", tab.Epoch(), e0+2)
	}
	for i := uint32(0); i < 3000; i++ {
		d, err := tab.Lookup(tupleN(i))
		if err != nil {
			t.Fatal(err)
		}
		if d != orig[i] {
			t.Fatalf("flow %d did not converge: %s→%s", i, orig[i], d)
		}
	}
}

// TestDrainWindow: a slot-changing mutation keeps the previous generation
// consultable until the injected clock passes the window; ReleaseDrained
// then detaches it. Hybrid muxes use exactly this pair of lookups.
func TestDrainWindow(t *testing.T) {
	now := 100.0
	tab := NewTable(Config{Clock: func() float64 { return now }})
	bs := backends("100.0.0.1", "100.0.0.2", "100.0.0.3")
	mustAdd(t, tab, &service.VIP{Addr: vipAddr, Backends: bs})
	if err := One(tab.Apply, Op{Kind: OpRemoveDIP, Addr: vipAddr, DIP: bs[0].Addr}); err != nil {
		t.Fatal(err)
	}

	v := tab.View()
	if !v.DrainActive(now) {
		t.Fatal("drain not active after mutation")
	}
	// Some flow must differ between generations (the victim's flows).
	changed := false
	for i := uint32(0); i < 2000 && !changed; i++ {
		tu := tupleN(i)
		h := ecmp.Hash(tu)
		prev, ok := v.PrevDIP(tu, h)
		if !ok {
			t.Fatal("prev generation lookup failed")
		}
		e, _ := v.Find(vipAddr)
		cur, err := e.DIP(tu, h)
		if err != nil {
			t.Fatal(err)
		}
		changed = prev != cur
	}
	if !changed {
		t.Fatal("no flow changed DIP across the epoch")
	}
	if tab.ReleaseDrained() {
		t.Fatal("drain released before the window passed")
	}
	now += DefaultDrainWindow + 1
	if v.DrainActive(now) {
		t.Fatal("drain still active past the window")
	}
	if !tab.ReleaseDrained() {
		t.Fatal("drain not released after the window")
	}
	if _, ok := tab.View().PrevDIP(tupleN(0), ecmp.Hash(tupleN(0))); ok {
		t.Fatal("previous generation survived release")
	}
	if tab.ReleaseDrained() {
		t.Fatal("second release reported work")
	}
}

func TestModes(t *testing.T) {
	tab := NewTable(Config{DefaultMode: ModeHybrid})
	mustAdd(t, tab, &service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")})
	if m, ok := tab.ModeOf(vipAddr); !ok || m != ModeHybrid {
		t.Fatalf("default mode = %v, %v", m, ok)
	}
	e0 := tab.Epoch()
	if err := One(tab.Apply, Op{Kind: OpMode, Addr: vipAddr, Mode: ModeStateless}); err != nil {
		t.Fatal(err)
	}
	if m, _ := tab.ModeOf(vipAddr); m != ModeStateless {
		t.Fatalf("mode = %v", m)
	}
	if tab.Epoch() != e0+1 {
		t.Fatalf("epoch = %d, want %d", tab.Epoch(), e0+1)
	}
	if err := One(tab.Apply, Op{Kind: OpMode, Addr: vipAddr, Mode: ModeStateless}); err != nil {
		t.Fatal(err)
	}
	if tab.Epoch() != e0+1 {
		t.Fatal("no-op mode set bumped the epoch")
	}
	if err := One(tab.Apply, Op{Kind: OpMode, Addr: packet.MustParseAddr("9.9.9.9"), Mode: ModeHybrid}); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}

	for _, m := range Modes() {
		parsed, err := ParseMode(m.String())
		if err != nil || parsed != m {
			t.Fatalf("round trip %v: %v %v", m, parsed, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModeStateful {
		t.Fatalf("empty mode: %v %v", m, err)
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode parsed")
	}
}

func TestPortRules(t *testing.T) {
	tab := NewTable(Config{})
	mustAdd(t, tab, &service.VIP{
		Addr:     vipAddr,
		Backends: backends("100.0.0.1"),
		Ports:    []service.PortRule{{Port: 80, Backends: backends("100.0.1.1")}},
	})
	tu := tupleN(0)
	if d, _ := tab.Lookup(tu); d != packet.MustParseAddr("100.0.1.1") {
		t.Fatalf("port rule not applied: %s", d)
	}
	tu.DstPort = 22
	if d, _ := tab.Lookup(tu); d != packet.MustParseAddr("100.0.0.1") {
		t.Fatalf("default set not applied: %s", d)
	}
}

func TestErrors(t *testing.T) {
	tab := NewTable(Config{})
	v := &service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}
	if err := tab.Update(v); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
	if err := One(tab.Apply, Op{Kind: OpRemove, Addr: vipAddr}); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
	mustAdd(t, tab, v)
	if err := tab.Add(v); err != ErrVIPExists {
		t.Fatalf("got %v", err)
	}
	if err := One(tab.Apply, Op{Kind: OpRemoveDIP, Addr: vipAddr, DIP: packet.MustParseAddr("6.6.6.6")}); err != ErrBackendNotFound {
		t.Fatalf("got %v", err)
	}
	if err := One(tab.Apply, Op{Kind: OpRemoveDIP, Addr: packet.MustParseAddr("9.9.9.9"), DIP: 1}); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
	if err := One(tab.Apply, Op{Kind: OpRemoveDIP, Addr: vipAddr, DIP: packet.MustParseAddr("100.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Lookup(tupleN(0)); err != ErrNoBackend {
		t.Fatalf("empty backend set: got %v", err)
	}
	if err := tab.Update(v); err != nil {
		t.Fatal(err)
	}
	if d, err := tab.Lookup(tupleN(0)); err != nil || d != packet.MustParseAddr("100.0.0.1") {
		t.Fatalf("after Update: %s, %v", d, err)
	}
	if err := One(tab.Apply, Op{Kind: OpMode, Addr: vipAddr, Mode: numModes}); err == nil {
		t.Fatal("an invalid mode was accepted")
	}
	if err := One(tab.Apply, Op{Kind: OpRemove, Addr: vipAddr}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Lookup(tupleN(0)); err != ErrVIPNotFound {
		t.Fatalf("got %v", err)
	}
}

// TestLookupZeroAlloc is the acceptance gate: the stateless steer lookup
// must not allocate.
func TestLookupZeroAlloc(t *testing.T) {
	tab := NewTable(Config{})
	mustAdd(t, tab, &service.VIP{
		Addr:     vipAddr,
		Backends: backends("100.0.0.1", "100.0.0.2", "100.0.0.3"),
		Ports:    []service.PortRule{{Port: 443, Backends: backends("100.0.1.1")}},
	})
	tu := tupleN(7)
	h := ecmp.Hash(tu)
	v := tab.View()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tab.Lookup(tu); err != nil {
			t.Fatal(err)
		}
		vw := tab.View()
		e, ok := vw.Find(tu.Dst)
		if !ok {
			t.Fatal("vip missing")
		}
		if _, err := e.DIP(tu, h); err != nil {
			t.Fatal(err)
		}
		if _, ok := v.PrevDIP(tu, h); ok {
			_ = ok
		}
	})
	if allocs != 0 {
		t.Fatalf("steer lookup: %v allocs/op, want 0", allocs)
	}
}

// TestAddCostIndependentOfTableSize: a generation shares all but one chunk of
// the VIP index with its predecessor, so adding the 2,000th VIP allocates about
// what adding the 20th did (stated in bytes; a whole-table copy is ~25× here).
func TestAddCostIndependentOfTableSize(t *testing.T) {
	tab := NewTable(Config{})
	var cost []uint64
	for i := 1; i <= 2000; i++ {
		v := &service.VIP{Addr: packet.AddrFrom4(10, 1, byte(i>>8), byte(i)), Backends: backends("100.0.0.1", "100.0.0.2")}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustAdd(t, tab, v)
		runtime.ReadMemStats(&after)
		if i == 20 || i == 2000 {
			cost = append(cost, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if cost[1] >= 2*cost[0] {
		t.Fatalf("the 2,000th Add allocates %d B, the 20th %d B: want < 2x", cost[1], cost[0])
	}
}

func BenchmarkLookup(b *testing.B) {
	tab := NewTable(Config{})
	if err := tab.Add(&service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4")}); err != nil {
		b.Fatal(err)
	}
	tu := tupleN(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Lookup(tu); err != nil {
			b.Fatal(err)
		}
	}
}

// TestApplyBatch: a batch publishes one generation whose drain view is the
// table before the batch, an op that fails is rejected alone with its own
// error, a batch that changes nothing publishes nothing, and a mode-only
// batch bumps the epoch without re-arming the drain.
func TestApplyBatch(t *testing.T) {
	clock := 100.0
	tab := NewTable(Config{Clock: func() float64 { return clock }})
	vip := func(i byte, dips ...string) *service.VIP {
		return &service.VIP{Addr: packet.AddrFrom4(10, 0, 0, i), Backends: backends(dips...)}
	}
	tab.Apply([]Op{{Kind: OpAdd, VIP: vip(1, "100.0.0.1")}, {Kind: OpAdd, VIP: vip(2, "100.0.0.1")}})
	if tab.Epoch() != 1 || tab.NumVIPs() != 2 {
		t.Fatalf("bootstrap batch: epoch %d with %d VIPs, want 1 with 2", tab.Epoch(), tab.NumVIPs())
	}

	tu := tupleN(0) // a flow on 10.0.0.1
	clock = 200
	ops := []Op{
		{Kind: OpSet, VIP: vip(1, "100.0.0.9"), Mode: ModeHybrid},
		{Kind: OpAdd, VIP: vip(2, "100.0.0.2")},                 // present: rejected alone
		{Kind: OpSet, VIP: &service.VIP{Addr: vipAddr}},         // no backends: invalid
		{Kind: OpRemove, Addr: packet.MustParseAddr("9.9.9.9")}, // absent
		{Kind: OpSet, VIP: vip(2, "100.0.0.2"), Mode: ModeStateless},
		{Kind: OpSet, VIP: vip(3, "100.0.0.3")},
	}
	tab.Apply(ops)
	if ops[2].Err == nil {
		t.Fatal("a VIP without backends was accepted")
	}
	for i, want := range map[int]error{0: nil, 1: ErrVIPExists, 3: ErrVIPNotFound, 4: nil, 5: nil} {
		if ops[i].Err != want {
			t.Fatalf("op %d: %v, want %v", i, ops[i].Err, want)
		}
	}
	if tab.Epoch() != 2 || tab.NumVIPs() != 3 {
		t.Fatalf("batch of six: epoch %d with %d VIPs, want 2 with 3", tab.Epoch(), tab.NumVIPs())
	}
	v := tab.View()
	if d, ok := v.PrevDIP(tu, ecmp.Hash(tu)); !ok || d != packet.MustParseAddr("100.0.0.1") {
		t.Fatalf("drain view reads %s,%v for 10.0.0.1, want the pre-batch 100.0.0.1", d, ok)
	}
	if m, _ := tab.ModeOf(packet.AddrFrom4(10, 0, 0, 2)); m != ModeStateless {
		t.Fatalf("mode rode the set as %v", m)
	}

	tab.Apply([]Op{{Kind: OpRemove, Addr: packet.MustParseAddr("9.9.9.9")}, {Kind: OpMode, Addr: vipAddr, Mode: ModeHybrid}})
	if tab.Epoch() != 2 {
		t.Fatal("a batch that changed nothing published a generation")
	}

	clock = 300
	tab.Apply([]Op{{Kind: OpMode, Addr: vipAddr, Mode: ModeStateful}})
	if v2 := tab.View(); tab.Epoch() != 3 || v2.g.prev != v.g.prev || v2.g.drainUntil != v.g.drainUntil {
		t.Fatal("a mode-only batch re-armed the drain")
	}
}

// TestRemoveDIPListedTwice: a host listed twice in a backend set (a
// virtualized host weighted by its VMs, core.RegisterHost) loses its first
// occurrence to an OpRemoveDIP and stays live through the second; only the
// flows of the removed member's slots move, and the port sub-entries are
// shared with the entry before the removal.
func TestRemoveDIPListedTwice(t *testing.T) {
	tab := NewTable(Config{})
	host, other := packet.MustParseAddr("100.0.0.1"), packet.MustParseAddr("100.0.0.2")
	mustAdd(t, tab, &service.VIP{
		Addr:     vipAddr,
		Backends: backends("100.0.0.1", "100.0.0.2", "100.0.0.1"),
		Ports:    []service.PortRule{{Port: 443, Backends: backends("100.0.1.1")}},
	})
	before, _ := tab.View().Find(vipAddr)
	if err := One(tab.Apply, Op{Kind: OpRemoveDIP, Addr: vipAddr, DIP: host}); err != nil {
		t.Fatal(err)
	}
	after, _ := tab.View().Find(vipAddr)
	if !after.HasLive(tupleN(0), host) || after.backends[0].Addr != 0 || after.backends[2].Addr != host {
		t.Fatalf("backends after removing one listing of %s: %v", host, after.backends)
	}
	if after.ports[443] != before.ports[443] {
		t.Fatal("the port sub-entry was rebuilt, not shared")
	}
	for s, d := range before.slots {
		if before.owner[s] != 0 && after.slots[s] != d {
			t.Fatalf("slot %d of a surviving member moved from %s to %s", s, d, after.slots[s])
		}
		if got := after.slots[s]; got != host && got != other {
			t.Fatalf("slot %d holds %s", s, got)
		}
	}
}

// TestGone: a batch that removes two DIPs of one VIP and a whole other VIP
// publishes one generation, and Gone matches exactly the flows it left
// without their DIP — every flow of the removed VIP, the flows of the first
// pinned to either removed DIP — and nothing a failed removal named.
func TestGone(t *testing.T) {
	tab := NewTable(Config{})
	a, b, c := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2), packet.AddrFrom4(10, 0, 0, 3)
	dips := backends("100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4")
	tab.Apply([]Op{
		{Kind: OpAdd, VIP: &service.VIP{Addr: a, Backends: dips}},
		{Kind: OpAdd, VIP: &service.VIP{Addr: b, Backends: dips}},
		{Kind: OpAdd, VIP: &service.VIP{Addr: c, Backends: dips}},
	})
	ops := []Op{
		{Kind: OpRemoveDIP, Addr: a, DIP: dips[0].Addr},
		{Kind: OpRemoveDIP, Addr: a, DIP: dips[1].Addr},
		{Kind: OpRemove, Addr: b},
		{Kind: OpRemoveDIP, Addr: c, DIP: packet.MustParseAddr("6.6.6.6")}, // not a member: refused
	}
	epoch := tab.Epoch()
	tab.Apply(ops)
	if tab.Epoch() != epoch+1 || ops[3].Err != ErrBackendNotFound {
		t.Fatalf("batch: epoch %d → %d, refused op's error %v", epoch, tab.Epoch(), ops[3].Err)
	}
	gone := Gone(ops)
	for _, vip := range []packet.Addr{a, b, c} {
		for _, d := range append(dips, service.Backend{Addr: packet.MustParseAddr("6.6.6.6")}) {
			tu := packet.FiveTuple{Src: 1, Dst: vip, SrcPort: 1, DstPort: 80, Proto: packet.ProtoTCP}
			want := vip == b || (vip == a && (d.Addr == dips[0].Addr || d.Addr == dips[1].Addr))
			if got := gone(tu, d.Addr); got != want {
				t.Errorf("Gone(flow to %s pinned to %s) = %v, want %v", vip, d.Addr, got, want)
			}
		}
	}
}

// TestGoneZeroAlloc: a batch that removed nothing — installs, a mode change,
// a refused removal — has no Gone match, and finding that out allocates
// nothing, so a mux never scans its per-flow state for it.
func TestGoneZeroAlloc(t *testing.T) {
	ops := []Op{
		{Kind: OpSet, VIP: &service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1")}},
		{Kind: OpMode, Addr: vipAddr, Mode: ModeHybrid},
		{Kind: OpRemove, Addr: 9, Err: ErrVIPNotFound},
		{Kind: OpRemoveDIP, Addr: vipAddr, DIP: 9, Err: ErrBackendNotFound},
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if Gone(ops) != nil {
			t.Fatal("a batch without an applied removal has a Gone match")
		}
	})
	if allocs != 0 {
		t.Fatalf("Gone: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkNewEntry and BenchmarkWithoutBackend report what one backend set
// of 2 to 8 DIPs costs to build and to take a DIP out of (-benchmem).
func BenchmarkNewEntry(b *testing.B) {
	for _, n := range []int{2, 8} {
		v := &service.VIP{Addr: vipAddr, Backends: benchBackends(n)}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				entrySink = NewEntry(v, ModeStateless)
			}
		})
	}
}

func BenchmarkWithoutBackend(b *testing.B) {
	for _, n := range []int{2, 8} {
		bs := benchBackends(n)
		e := NewEntry(&service.VIP{Addr: vipAddr, Backends: bs}, ModeStateless)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if entrySink, err = e.WithoutBackend(bs[1].Addr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// entrySink keeps the benchmarked calls' results alive.
var entrySink *Entry

func benchBackends(n int) []service.Backend {
	bs := make([]service.Backend, n)
	for i := range bs {
		bs[i] = service.Backend{Addr: packet.AddrFrom4(100, 0, 0, byte(i+1)), Weight: 1}
	}
	return bs
}
