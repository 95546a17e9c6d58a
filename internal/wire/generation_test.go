package wire

// Tests that a replicated delta lands on each dataplane table as one
// generation: the receiver's batch reconcile, not one publish per VIP.

import (
	"testing"

	"duet/internal/delta"
	"duet/internal/ecmp"
	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// TestDeltaDrainsAgainstThePreDeltaTable: a hybrid SMux pins an established
// flow whose pick an epoch changes, comparing it with the table the flow was
// served from. One delta changes VIP A's backends and then VIP B's; after it,
// A's flows must still reach their pre-delta DIPs. Were each VIP published as
// its own generation, the drain view would be the one after A's update, A's
// flows would compare equal against it and move.
func TestDeltaDrainsAgainstThePreDeltaTable(t *testing.T) {
	sm, err := StartNode(dataplaneSpec(t), "smux-1")
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	c := DialControl(sm.ControlAddr(), sm.Reg)
	defer c.Close()

	hybrid := func(addr string, dips ...string) VIPSpec {
		v := VIPSpec{Addr: addr, Mode: "hybrid"}
		for _, d := range dips {
			v.Backends = append(v.Backends, BackendSpec{Addr: d})
		}
		return v
	}
	st1 := configAt(t, 1, hybrid("10.0.0.1", "100.0.0.1", "100.0.0.2"), hybrid("10.0.0.2", "100.0.0.1"))
	st2 := configAt(t, 2, hybrid("10.0.0.1", "100.0.0.1", "100.0.0.2", "100.0.0.3"), hybrid("10.0.0.2", "100.0.0.1", "100.0.0.3"))
	if _, err := pushDelta(c, delta.Diff(delta.NewState(), st1)); err != nil {
		t.Fatalf("bootstrap push: %v", err)
	}
	vipA, vipB := packet.MustParseAddr("10.0.0.1"), packet.MustParseAddr("10.0.0.2")
	d := delta.Diff(st1, st2)
	if len(d.Ops) < 2 || d.Ops[0].VIP != vipA || d.Ops[len(d.Ops)-1].VIP != vipB {
		t.Fatalf("want a delta that changes A and then B, got %+v", d.Ops)
	}

	// Established flows on A, each served once before the delta.
	flow := func(i int) packet.FiveTuple {
		return packet.FiveTuple{Src: packet.AddrFrom4(30, 0, byte(i>>8), byte(i)), Dst: vipA,
			SrcPort: uint16(20000 + i), DstPort: 80, Proto: packet.ProtoTCP}
	}
	serve := func(tu packet.FiveTuple) packet.Addr {
		t.Helper()
		res, err := sm.pair.SMux.Process(packet.BuildTCP(tu, packet.TCPAck, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Encap
	}
	const flows = 256
	before := make([]packet.Addr, flows)
	for i := range before {
		before[i] = serve(flow(i))
	}

	if _, err := pushDelta(c, d); err != nil {
		t.Fatalf("delta push: %v", err)
	}
	entry, ok := sm.pair.SMux.Steer().View().Find(vipA)
	if !ok {
		t.Fatal("A is gone after the delta")
	}
	moved := 0
	for i := range before {
		tu := flow(i)
		if fresh, _ := entry.DIP(tu, ecmp.Hash(tu)); fresh == before[i] {
			continue // the epoch did not change this flow's pick
		}
		moved++
		if got := serve(tu); got != before[i] {
			t.Fatalf("flow %d: served by %s after the delta, established on %s", i, got, before[i])
		}
	}
	if moved == 0 {
		t.Fatal("the delta changed no flow's pick; the test is vacuous")
	}
}

// TestDeltaPublishesOneGenerationPerTable: a delta touching N VIPs advances
// every table a dataplane node reconciles by exactly one generation — the
// SMux's steer epoch, its NIC table and the switch's tables — and an
// identical re-apply (a snapshot of the state already held) advances none.
// A snapshot lands as its diff from the mirror: one that changes one VIP
// reprograms that VIP alone, one switch op. A delta that only removes DIPs
// takes each out in place: one switch op per VIP. A NIC VIP whose Tier leaves
// TierHMux leaves the switch, one op, and comes back with one when its Tier
// returns; the SMux and the NIC keep it as it was, and publish nothing.
func TestDeltaPublishesOneGenerationPerTable(t *testing.T) {
	spec := dataplaneSpec(t)
	spec.Nodes[0].NMuxTable = 256
	nodes := map[string]*Node{}
	for _, name := range []string{"smux-1", "sw-1"} {
		n, err := StartNode(spec, name)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[name] = n
	}
	sm, sw := nodes["smux-1"], nodes["sw-1"]
	gens := func() [3]uint64 {
		return [3]uint64{sm.pair.SMux.Epoch(), sm.pair.NIC.Stats().Generation, sw.hm.Stats().Generation}
	}
	push := func(d *delta.Delta) {
		t.Helper()
		for _, n := range nodes {
			c := DialControl(n.ControlAddr(), n.Reg)
			_, err := pushDelta(c, d)
			c.Close()
			if err != nil {
				t.Fatalf("%s: %v", n.Me.Name, err)
			}
		}
	}
	vip := func(i int, nic bool, dips ...byte) VIPSpec {
		v := VIPSpec{Addr: packet.AddrFrom4(10, 0, 0, byte(i)).String(), Nic: nic, Mode: "hybrid"}
		for _, d := range dips {
			v.Backends = append(v.Backends, BackendSpec{Addr: packet.AddrFrom4(100, 0, 0, d).String()})
		}
		return v
	}
	const n = 12
	var pop1, pop2 []VIPSpec
	for i := 1; i <= n; i++ {
		pop1 = append(pop1, vip(i, i%2 == 0, 1, 2))
		switch {
		case i == 1: // removed
		case i%3 == 0: // moves off the NIC
			pop2 = append(pop2, vip(i, false, 1, 2, 3))
		default:
			pop2 = append(pop2, vip(i, i%2 == 0, 2, 3))
		}
	}
	pop2 = append(pop2, vip(n+1, true, 4, 5)) // added
	st1, st2 := configAt(t, 1, pop1...), configAt(t, 2, pop2...)
	st3 := st2.Clone() // one NIC VIP's weight changed
	st3.Epoch = 3
	st3.VIPs[packet.AddrFrom4(10, 0, 0, 2)].Backends[0].Weight = 5
	st4 := st3.Clone() // one DIP gone from every VIP
	st4.Epoch = 4
	for _, v := range st4.VIPs {
		v.Backends = v.Backends[:len(v.Backends)-1]
	}
	flip := packet.AddrFrom4(10, 0, 0, 2) // a NIC VIP
	st5 := st4.Clone()                    // flip served by the SMux tier alone
	st5.Epoch = 5
	st5.VIPs[flip].Tier = delta.TierSMux
	st6 := st5.Clone() // flip back on the switches
	st6.Epoch = 6
	st6.VIPs[flip].Tier = delta.TierHMux

	steps := []struct {
		what string
		d    *delta.Delta
		want [3]uint64 // generations, per table as gens lists them
		ops  uint64    // switch table operations
		held bool      // whether the switch holds flip after the step
	}{
		{"bootstrap", delta.Diff(delta.NewState(), st1), [3]uint64{1, 1, 1}, n, true},
		{"delta touching every VIP", delta.Diff(st1, st2), [3]uint64{1, 1, 1}, 1 + (n - 1) + 1, true}, // 1 leaves, the rest are set afresh, 13 joins
		{"identical snapshot", delta.SnapshotOf(st2), [3]uint64{0, 0, 0}, 0, true},
		{"snapshot changing one VIP", delta.SnapshotOf(st3), [3]uint64{1, 1, 1}, 1, true},
		{"delta removing a DIP of every VIP", delta.Diff(st3, st4), [3]uint64{1, 1, 1}, uint64(len(pop2)), true},
		{"delta moving a NIC VIP to the SMux tier", delta.Diff(st4, st5), [3]uint64{0, 0, 1}, 1, false},
		{"delta moving it back to the HMux tier", delta.Diff(st5, st6), [3]uint64{0, 0, 1}, 1, true},
	}
	for _, s := range steps {
		pre, ops := gens(), counter(sw, "switchagent.ops")
		push(s.d)
		post := gens()
		for i, table := range []string{"smux steer epoch", "nic table", "hmux tables"} {
			if got := post[i] - pre[i]; got != s.want[i] {
				t.Errorf("%s: %s advanced %d generations, want %d", s.what, table, got, s.want[i])
			}
		}
		if got := counter(sw, "switchagent.ops") - ops; got != s.ops {
			t.Errorf("%s: switchagent.ops grew by %d, want %d", s.what, got, s.ops)
		}
		if got := sw.hm.HasVIP(flip); got != s.held {
			t.Errorf("%s: switch holds %s = %v, want %v", s.what, flip, got, s.held)
		}
	}
	if got := sm.pair.SMux.NumVIPs(); got != len(pop2) {
		t.Fatalf("smux holds %d VIPs, want %d", got, len(pop2))
	}
	if got, want := sm.pair.NIC.NumVIPs(), 5; got != want { // 2, 4, 8 and 10 stay, 6 and 12 leave, 13 joins
		t.Fatalf("nic holds %d VIPs, want %d", got, want)
	}
	if got := sw.hm.Stats().VIPs; got != len(pop2) {
		t.Fatalf("switch holds %d VIPs, want %d", got, len(pop2))
	}
}

// TestModeFlipOpensNoDrain: a delta that changes only a VIP's mode reaches
// an SMux node as an OpMode — no slot moves, so the steer epoch advances by
// one and no drain window opens. A hybrid VIP gains a DIP, so the drain
// pins the established flows whose pick moved; once the window has passed,
// the VIP flips to stateful and back, and its pinned flows still reach the
// DIPs they were pinned to. A mode flip that set the entry afresh would open
// a 30 s drain at each step.
func TestModeFlipOpensNoDrain(t *testing.T) {
	now := 0.0
	reg := telemetry.NewRegistry()
	cfg := smux.DefaultConfig(packet.MustParseAddr("20.0.0.1"))
	cfg.Clock = func() float64 { return now }
	sm := smux.New(cfg)
	n := &Node{Reg: reg, pair: nmux.Pair{SMux: sm}, vips: reg.Gauge("wire.vips"), cfg: delta.NewState()}
	mirror := func(epoch uint64, mode string, dips ...string) {
		t.Helper()
		v := VIPSpec{Addr: "10.0.0.1", Mode: mode}
		for _, d := range dips {
			v.Backends = append(v.Backends, BackendSpec{Addr: d})
		}
		old := n.cfg
		n.cfg = configAt(t, epoch, v)
		if err := n.reconcileSMux(delta.Diff(old, n.cfg).Ops); err != nil {
			t.Fatal(err)
		}
	}
	vip := packet.MustParseAddr("10.0.0.1")
	flow := func(i int) packet.FiveTuple {
		return packet.FiveTuple{Src: packet.AddrFrom4(30, 0, byte(i>>8), byte(i)), Dst: vip,
			SrcPort: uint16(20000 + i), DstPort: 80, Proto: packet.ProtoTCP}
	}
	serve := func(tu packet.FiveTuple) packet.Addr {
		t.Helper()
		res, err := sm.Process(packet.BuildTCP(tu, packet.TCPAck, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Encap
	}

	dips := []string{"100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4"}
	mirror(1, "hybrid", dips...)
	mirror(2, "hybrid", append(dips, "100.0.0.5")...)
	entry, _ := sm.Steer().View().Find(vip)
	pinned := map[packet.FiveTuple]packet.Addr{}
	for i := 0; i < 256; i++ {
		tu := flow(i)
		live, err := entry.DIP(tu, ecmp.Hash(tu))
		if err != nil {
			t.Fatal(err)
		}
		if d := serve(tu); d != live {
			pinned[tu] = d
		}
	}
	if len(pinned) == 0 || sm.ConnStats().Overlay != len(pinned) {
		t.Fatalf("%d flows served off the live pick, %d overlay pins; want the same, more than 0", len(pinned), sm.ConnStats().Overlay)
	}
	now = steer.DefaultDrainWindow + 1
	sm.Tick()
	if sm.Steer().DrainActive() {
		t.Fatal("the DIP addition's drain is still open past its window")
	}

	for i, mode := range []steer.Mode{steer.ModeStateful, steer.ModeHybrid} {
		epoch := sm.Epoch()
		mirror(uint64(3+i), mode.String(), append(dips, "100.0.0.5")...)
		if got, _ := sm.ModeOf(vip); got != mode {
			t.Fatalf("mode %s after the flip, want %s", got, mode)
		}
		if got := sm.Epoch() - epoch; got != 1 {
			t.Errorf("flip to %s advanced the steer epoch by %d, want 1", mode, got)
		}
		if sm.Steer().DrainActive() {
			t.Errorf("flip to %s opened a drain window", mode)
		}
	}
	for tu, d := range pinned {
		if got := serve(tu); got != d {
			t.Fatalf("pinned flow %v moved %s → %s across the mode flips", tu, d, got)
		}
	}
}
