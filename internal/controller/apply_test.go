package controller

import (
	"slices"
	"testing"

	"duet/internal/assign"
	"duet/internal/core"
	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/telemetry"
	"duet/internal/topology"
	"duet/internal/workload"
)

// generations reads every dataplane table's generation counter: each switch's,
// each NIC's and each SMux's steer table.
func generations(c *core.Cluster) []uint64 {
	var out []uint64
	for _, hm := range c.HMuxes {
		out = append(out, hm.Stats().Generation)
	}
	for _, nm := range c.NMuxes {
		out = append(out, nm.Stats().Generation)
	}
	for _, sm := range c.SMuxes {
		out = append(out, sm.Epoch())
	}
	return out
}

// TestEpochPublishesOneGenerationPerTable is the in-process twin of wire's
// TestDeltaPublishesOneGenerationPerTable: an epoch lands on every switch,
// NIC and SMux as one batch, so however many VIPs it moves onto a switch or
// the NIC tier, each table's generation advances by at most one — a hybrid
// flow drains against the table as it stood before the whole epoch, not
// before the previous VIP.
func TestEpochPublishesOneGenerationPerTable(t *testing.T) {
	c, w, ct := nmuxWorld(t, 80, 21)
	ct.Opts.MaxHMuxVIPs = 40 // more VIPs than the 16 switches: some switch takes two

	for epoch := 0; epoch < w.NumEpochs(); epoch++ {
		before := generations(c)
		if _, err := ct.RunEpoch(w, epoch); err != nil {
			t.Fatal(err)
		}
		for i, g := range generations(c) {
			if g > before[i]+1 {
				t.Errorf("epoch %d: table %d published %d generations, want at most one", epoch, i, g-before[i])
			}
		}
		if epoch > 0 {
			continue
		}
		// The first epoch is the busy one this test needs.
		perSwitch := map[int32]int{}
		nic := 0
		for i, tier := range ct.Previous().TierOf {
			switch tier {
			case assign.TierHMux:
				perSwitch[ct.Previous().SwitchOf[i]]++
			case assign.TierNMux:
				nic++
			}
		}
		crowded := 0
		for _, n := range perSwitch {
			crowded = max(crowded, n)
		}
		if crowded < 2 || nic < 2 {
			t.Fatalf("epoch 0 put at most %d VIPs on one switch and %d on the NICs; want 2 or more of each", crowded, nic)
		}
	}
}

// TestRefusedPlacementStaysOnSMux: the engine prices a switch's DIP memory,
// not its host-table entries, so an assignment can put more VIPs on a switch
// than its host table holds. The one that does not fit is refused — counted,
// traced — and stays on the SMux tier in the previous assignment, still
// delivered; once the next epoch frees room on the switch, it lands there.
func TestRefusedPlacementStaysOnSMux(t *testing.T) {
	c, err := core.New(core.Config{
		Topology:   topology.TestbedConfig(),
		NumSMuxes:  3,
		Aggregate:  packet.MustParsePrefix("10.0.0.0/8"),
		HMuxTables: hmux.Config{HostTableSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		NumVIPs: 6, TotalRate: 1e9, Epochs: 2, Seed: 31, MaxDIPs: 8, TrafficSkew: 1.2,
	}, c.Topo)
	if err != nil {
		t.Fatal(err)
	}
	ct := New(c, assign.DefaultOptions())
	reg, rec := c.Telemetry()
	ct.SetTelemetry(reg, rec)
	if err := ct.SyncVIPs(w, 4, nil); err != nil {
		t.Fatal(err)
	}
	full, spare := c.Topo.AggID(0, 0), c.Topo.AggID(1, 0)
	plan := func(homes map[int]topology.SwitchID) *assign.Assignment {
		a := &assign.Assignment{
			SwitchOf: make([]int32, len(w.VIPs)),
			TierOf:   make([]assign.Tier, len(w.VIPs)),
		}
		for i := range a.SwitchOf {
			a.SwitchOf[i] = assign.Unassigned
			if sw, ok := homes[i]; ok {
				a.TierOf[i], a.SwitchOf[i] = assign.TierHMux, int32(sw)
			}
		}
		return a
	}
	refused := w.VIPs[2].Addr

	rep := ct.applyEpoch(w, 0, plan(map[int]topology.SwitchID{0: full, 1: full, 2: full}))
	if rep.Refused != 1 || rep.Moved != 3 {
		t.Fatalf("epoch 0: %d moved, %d refused; want 3 and 1", rep.Moved, rep.Refused)
	}
	if n := reg.Counter("controller.place_refused").Value(); n != 1 {
		t.Fatalf("controller.place_refused = %d, want 1", n)
	}
	if p := ct.Previous(); p.TierOf[2] != assign.TierSMux || p.SwitchOf[2] != assign.Unassigned {
		t.Fatalf("previous assignment keeps the refused VIP on tier %s, switch %d", p.TierOf[2], p.SwitchOf[2])
	}
	if _, ok := c.HomeOf(refused); ok {
		t.Fatal("the refused VIP has a home switch")
	}
	traced := slices.ContainsFunc(rec.Snapshot(), func(e telemetry.Event) bool {
		return e.Kind == telemetry.KindMigrationStep && e.A == uint32(refused) && e.Aux == 0
	})
	if !traced {
		t.Fatal("no migration-step 0 event for the refused VIP")
	}
	v, _ := c.VIP(refused)
	for i := uint32(0); i < 50; i++ {
		d, err := c.Deliver(clientPkt(refused, i))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(v.Backends, func(b service.Backend) bool { return b.Addr == d.DIP }) {
			t.Fatalf("refused VIP delivered to %s, not one of its DIPs", d.DIP)
		}
	}

	// VIP 0 moves to the spare switch in the same batch VIP 2 retries: the
	// withdrawal goes first, so the switch has its room.
	rep = ct.applyEpoch(w, 1, plan(map[int]topology.SwitchID{0: spare, 1: full, 2: full}))
	if rep.Refused != 0 {
		t.Fatalf("epoch 1 refused %d placements, want 0", rep.Refused)
	}
	for i, want := range map[int]topology.SwitchID{0: spare, 1: full, 2: full} {
		if sw, ok := c.HomeOf(w.VIPs[i].Addr); !ok || sw != want {
			t.Fatalf("epoch 1: VIP %d on switch %d (%v), want %d", i, sw, ok, want)
		}
	}
}

// TestSyncVIPsIsOneBatch: a bulk load is one Place batch — each SMux's steer
// table publishes one generation for the whole population, where a VIP at a
// time published one each, and a second sync of the same VIPs publishes
// nothing.
func TestSyncVIPsIsOneBatch(t *testing.T) {
	c, err := core.New(core.Config{Topology: topology.TestbedConfig(), NumSMuxes: 3})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{NumVIPs: 20, TotalRate: 1e9, Epochs: 1, Seed: 3, MaxDIPs: 8}, c.Topo)
	if err != nil {
		t.Fatal(err)
	}
	ct := New(c, assign.DefaultOptions())
	for round, want := range []uint64{1, 1} {
		if err := ct.SyncVIPs(w, 4, nil); err != nil {
			t.Fatal(err)
		}
		if got := len(c.VIPs()); got != len(w.VIPs) {
			t.Fatalf("round %d: %d VIPs configured, want %d", round, got, len(w.VIPs))
		}
		for i, sm := range c.SMuxes {
			if got := sm.Epoch(); got != want {
				t.Errorf("round %d: SMux %d at steer epoch %d, want %d", round, i, got, want)
			}
		}
	}
}

// TestHealthSweepIsOneBatch: a sweep that finds three dead DIPs across two
// HMux-served VIPs takes them all out in one Place batch — each SMux's steer
// epoch and each switch holding one of the VIPs advance by exactly one, no
// other table moves — and still reports, releases and counts each DIP.
func TestHealthSweepIsOneBatch(t *testing.T) {
	c, w, ct := world(t, 40, 5e10, 4)
	reg, rec := c.Telemetry()
	ct.SetTelemetry(reg, rec)
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	var sick [][2]packet.Addr
	var vips []packet.Addr
	for _, a := range c.VIPs() {
		v, _ := c.VIP(a)
		if _, ok := c.HomeOf(a); !ok || len(v.Backends) < 3 {
			continue
		}
		for _, b := range v.Backends[:2-len(vips)] { // two DIPs of the first VIP, one of the second
			sick = append(sick, [2]packet.Addr{a, b.Addr})
		}
		if vips = append(vips, a); len(vips) == 2 {
			break
		}
	}
	if len(sick) != 3 {
		t.Fatalf("found %d HMux VIPs of 3 or more DIPs, want 2", len(vips))
	}
	for _, s := range sick {
		agent, _ := c.Agent(s[1])
		if err := agent.SetHealth(s[1], false); err != nil {
			t.Fatal(err)
		}
	}
	holds := map[int]bool{}
	for _, a := range vips {
		for _, sw := range c.Replicas(a) {
			holds[int(sw)] = true
		}
	}
	before := generations(c)
	removed, err := ct.HealthSweep()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(removed, sick) {
		t.Fatalf("sweep removed %v, want %v", removed, sick)
	}
	for i, g := range generations(c) {
		want := uint64(0)
		switch {
		case i < len(c.HMuxes) && holds[i], i >= len(c.HMuxes)+len(c.NMuxes):
			want = 1
		}
		if g-before[i] != want {
			t.Errorf("table %d advanced %d generations, want %d", i, g-before[i], want)
		}
	}
	if got := reg.Counter("controller.health_removals").Value(); got != 3 {
		t.Errorf("controller.health_removals = %d, want 3", got)
	}
	for _, s := range sick {
		if v, _ := c.VIP(s[0]); slices.ContainsFunc(v.Backends, func(b service.Backend) bool { return b.Addr == s[1] }) {
			t.Errorf("VIP %s still lists the dead DIP %s", s[0], s[1])
		}
	}
}
