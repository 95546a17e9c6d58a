package testbed

// Delta-driven reconfiguration on the §7 testbed: an epoch's changes arrive
// as a delta.Diff between two replicated states, and only the VIPs the
// delta touches pay FIB operations. This is the testbed-level half of the
// control-plane scale-out story — the wire replicator ships O(changed)
// deltas, and here the fabric absorbs them with O(changed) migrations while
// every untouched VIP keeps its hardware fast path and zero loss
// (Figure 13's no-disturbance property, extended to the delta protocol).

import (
	"testing"

	"duet/internal/delta"
	"duet/internal/service"
	"duet/internal/topology"
)

func deltaStateFor(tb *Testbed, epoch uint64, onHMux map[int]topology.SwitchID, n int) *delta.State {
	st := delta.NewState()
	st.Epoch = epoch
	for i := 0; i < n; i++ {
		vs := &delta.VIPState{Addr: vipN(i), Backends: backendsFor(i), Tier: delta.TierSMux, Switch: delta.Unassigned}
		if sw, ok := onHMux[i]; ok {
			vs.Tier = delta.TierHMux
			vs.Switch = int32(sw)
		}
		st.VIPs[vipN(i)] = vs
	}
	return st
}

func TestDeltaDrivenMigrationTouchesOnlyChangedVIPs(t *testing.T) {
	tb := New(11)
	const n = 6
	// Epoch 1: VIPs 0-2 on HMuxes, 3-5 on the SMux backstop.
	placement := map[int]topology.SwitchID{
		0: tb.Cluster.Topo.TorID(0, 0), 1: tb.Cluster.Topo.TorID(0, 1), 2: tb.Cluster.Topo.TorID(0, 2),
	}
	for i := 0; i < n; i++ {
		v := &service.VIP{Addr: vipN(i), Backends: backendsFor(i)}
		if sw, ok := placement[i]; ok {
			if err := tb.AssignVIPToHMux(v, sw); err != nil {
				t.Fatal(err)
			}
		} else if err := tb.AddVIPToSMuxes(v); err != nil {
			t.Fatal(err)
		}
	}
	tb.RunUntil(1.0)

	// Epoch 2 arrives as a delta: VIP 0 moves to a different ToR, VIP 3 is
	// promoted from the SMuxes to an HMux. Everything else is untouched.
	prev := deltaStateFor(tb, 1, placement, n)
	nextPlacement := map[int]topology.SwitchID{
		0: tb.Cluster.Topo.TorID(1, 0), 1: placement[1], 2: placement[2], 3: tb.Cluster.Topo.TorID(1, 1),
	}
	next := deltaStateFor(tb, 2, nextPlacement, n)
	d := delta.Diff(prev, next)
	if len(d.Ops) != 2 {
		t.Fatalf("delta touches %d VIPs, want 2 (only the changed ones)", len(d.Ops))
	}

	// Apply the delta as stepping-stone migrations — one per touched VIP.
	migrations := 0
	for _, op := range d.Ops {
		pv, nv := prev.VIPs[op.VIP], next.VIPs[op.VIP]
		if pv.Tier == delta.TierHMux {
			tb.MigrateToSMux(op.VIP, topology.SwitchID(pv.Switch), 1.0)
		}
		if nv.Tier == delta.TierHMux {
			tb.MigrateToHMux(op.VIP, topology.SwitchID(nv.Switch), 2.0)
		}
		migrations++
	}
	if migrations != 2 {
		t.Fatalf("delta drove %d migrations, want 2", migrations)
	}

	// Untouched HMux VIPs keep their hardware fast path across the whole
	// reconfiguration window: zero loss, never served by the backstop.
	for _, i := range []int{1, 2} {
		for _, r := range pingSeries(tb, vipN(i), 1.0, 4.0) {
			if r.Lost || r.ViaSMux {
				t.Fatalf("untouched VIP %d disturbed by delta migration: %+v", i, r)
			}
		}
	}
	// The moved VIP answers once the move settles, and lands on its new
	// switch (mid-migration reachability is Figure 13's test).
	for _, r := range pingSeries(tb, vipN(0), 4.0, 4.3) {
		if r.Lost {
			t.Fatal("moved VIP lost pings after delta migration")
		}
	}
	tb.RunUntil(5.0)
	if sw, ok := tb.Cluster.HomeOf(vipN(0)); !ok || sw != nextPlacement[0] {
		t.Fatal("moved VIP not on its new switch")
	}
	if sw, ok := tb.Cluster.HomeOf(vipN(3)); !ok || sw != nextPlacement[3] {
		t.Fatal("promoted VIP not on its switch")
	}
}
