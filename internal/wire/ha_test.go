package wire

// Tests for controller replication and HA: delta propagation under churn,
// standby tailing, kill-the-leader takeover with zero full re-pushes, and
// the snapshot recovery path for a blank restart behind the compaction
// horizon.

import (
	"testing"
	"time"

	"duet/internal/delta"
	"duet/internal/packet"
)

// testHASpec is a two-controller cluster with the churn driver on: ctl-1
// leads at bootstrap, ctl-2 tails the delta log as a warm standby.
func testHASpec(t testing.TB) *ClusterSpec {
	return &ClusterSpec{
		Nodes: []NodeSpec{
			{Name: "ctl-1", Role: RoleController, Control: freeTCP(t), HTTP: freeTCP(t)},
			{Name: "ctl-2", Role: RoleController, Control: freeTCP(t), HTTP: freeTCP(t)},
			{Name: "smux-1", Role: RoleSMux, Self: "20.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: freeTCP(t)},
			{Name: "host-1", Role: RoleHostAgent, Self: "100.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: freeTCP(t)},
		},
		VIPs: []VIPSpec{
			{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.1"}}},
			{Addr: "10.0.0.2", Backends: []BackendSpec{{Addr: "100.0.0.1", Weight: 2}}},
		},
		ResyncMillis: 50,
		ScrapeMillis: 25,
		HealthMillis: 50,
		LeaseMillis:  300,
		ChurnMillis:  60,
		ChurnSeed:    42,
		ChurnFrac:    0.5,
	}
}

func gauge(n *Node, name string) int64    { return n.Reg.Gauge(name).Value() }
func counter(n *Node, name string) uint64 { return n.Reg.Counter(name).Value() }

// TestControllerHAFailover is the kill-the-leader scenario in-process: the
// standby must tail the leader's epochs, take over within one lease after
// the leader dies, and keep advancing the fleet — all without a single
// full-config push (the bootstrap itself is a delta from the empty state).
func TestControllerHAFailover(t *testing.T) {
	spec := testHASpec(t)
	var nodes []*Node
	for _, name := range []string{"ctl-1", "ctl-2", "smux-1", "host-1"} {
		n, err := StartNode(spec, name)
		if err != nil {
			t.Fatalf("StartNode %s: %v", name, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	ctl1, ctl2, sm := nodes[0], nodes[1], nodes[2]

	waitFor(t, "ctl-1 leading", func() bool { return gauge(ctl1, "wire.controller.leader") == 1 })
	waitFor(t, "smux programmed", func() bool { return gauge(sm, "wire.vips") >= 2 })

	// Churn advances epochs; the standby and the dataplane must both tail.
	waitFor(t, "epochs advancing", func() bool { return gauge(ctl1, "wire.delta.log_head") >= 5 })
	waitFor(t, "standby tailing", func() bool { return gauge(ctl2, "wire.delta.log_head") >= 5 })
	waitFor(t, "smux tailing", func() bool { return gauge(sm, "wire.delta.epoch") >= 5 })
	if got := counter(ctl1, "wire.controller.full_pushes"); got != 0 {
		t.Fatalf("leader made %d full pushes at steady state; deltas only", got)
	}
	if ctl2.rep.isLeader() {
		t.Fatal("standby claims leadership while the leader is alive")
	}

	// Kill the leader. The standby must take over within one lease (plus
	// election-tick slack) and resume driving epochs from its tailed log.
	headAtKill := gauge(ctl2, "wire.delta.log_head")
	ctl1.Close()
	lease := time.Duration(spec.LeaseMillis) * time.Millisecond
	deadline := time.Now().Add(2 * lease)
	for gauge(ctl2, "wire.controller.leader") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("standby did not take over within one lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, "new leader advancing epochs", func() bool {
		return gauge(ctl2, "wire.delta.log_head") >= headAtKill+3
	})
	waitFor(t, "smux following new leader", func() bool {
		return gauge(sm, "wire.delta.epoch") >= headAtKill+3
	})
	if got := counter(ctl2, "wire.controller.full_pushes"); got != 0 {
		t.Fatalf("takeover made %d full pushes; the tailed log must suffice", got)
	}
	if got := counter(sm, "wire.delta.rejected"); got > 2 {
		t.Fatalf("smux rejected %d pushes across takeover; want at most the term race", got)
	}
}

// TestSnapshotRecoveryBehindHorizon pins the demoted full-push path: a
// blank restart whose epoch is behind the log's compaction horizon gets
// exactly one snapshot push, then rides deltas again.
func TestSnapshotRecoveryBehindHorizon(t *testing.T) {
	spec := testHASpec(t)
	spec.Nodes = spec.Nodes[:1] // single controller: just ctl-1 …
	spec.Nodes = append(spec.Nodes, NodeSpec{
		Name: "smux-1", Role: RoleSMux, Self: "20.0.0.1",
		Data: freeUDP(t), Control: freeTCP(t), HTTP: freeTCP(t),
	})
	spec.DeltaTail = 4 // … with an aggressive compaction horizon

	ctl, err := StartNode(spec, "ctl-1")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	sm, err := StartNode(spec, "smux-1")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "smux programmed", func() bool { return gauge(sm, "wire.vips") >= 2 })

	// Let the log compact well past the tail, then restart the smux blank:
	// its epoch 0 is unreachable via Since, forcing the snapshot push.
	waitFor(t, "log compacted", func() bool { return gauge(ctl, "wire.delta.log_horizon") >= 6 })
	sm.Close()
	full := counter(ctl, "wire.controller.full_pushes")
	sm2, err := StartNode(spec, "smux-1")
	if err != nil {
		t.Fatalf("restart smux: %v", err)
	}
	defer sm2.Close()
	waitFor(t, "smux recovered", func() bool {
		return gauge(sm2, "wire.delta.epoch") >= gauge(ctl, "wire.delta.log_horizon")
	})
	waitFor(t, "snapshot push counted", func() bool {
		return counter(ctl, "wire.controller.full_pushes") > full
	})
	// …and after recovery it rides deltas again.
	head := gauge(sm2, "wire.delta.epoch")
	waitFor(t, "deltas resume after recovery", func() bool {
		return gauge(sm2, "wire.delta.epoch") >= head+2
	})
}

// ackedAll reports whether the leader has recorded every peer's ack of the
// log head this term.
func ackedAll(r *replicator) bool {
	head := r.log.HeadEpoch()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.peers {
		if e, ok := r.acked[p.Name]; !ok || e != head {
			return false
		}
	}
	return true
}

// TestEpochCostsOneCallPerPeer: once warm, the leader knows every peer's
// epoch, so an epoch costs exactly one call per peer — the delta push, no
// heartbeat probe before it. A dataplane node restarted blank inside the
// compaction horizon is found by a probe after the failed push, and is
// replayed in deltas: no rejection, no snapshot.
func TestEpochCostsOneCallPerPeer(t *testing.T) {
	spec := testHASpec(t)
	spec.Nodes[3] = NodeSpec{Name: "sw-1", Role: RoleSwitch, Self: "1.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: freeTCP(t)}
	spec.ChurnMillis = 0      // the test drives the epochs
	spec.ResyncMillis = 60000 // no periodic round inside the test …
	spec.LeaseMillis = 60000  // … nor a standby heartbeat
	nodes := map[string]*Node{}
	for _, name := range []string{"ctl-2", "smux-1", "sw-1", "ctl-1"} { // the leader last: its first round finds every peer up
		n, err := StartNode(spec, name)
		if err != nil {
			t.Fatalf("StartNode %s: %v", name, err)
		}
		defer func() { nodes[name].Close() }()
		nodes[name] = n
	}
	ctl := nodes["ctl-1"]
	waitFor(t, "bootstrap acked by every peer", func() bool { return ackedAll(ctl.rep) })

	const epochs = 10
	peers := uint64(len(ctl.rep.peers))
	calls := counter(ctl, "wire.control.calls")
	for i := 0; i < epochs; i++ {
		ctl.rep.advanceEpoch()
		waitFor(t, "epoch acked by every peer", func() bool { return ackedAll(ctl.rep) })
	}
	if got := counter(ctl, "wire.control.calls") - calls; got != peers*epochs {
		t.Fatalf("%d epochs to %d peers cost %d calls, want %d", epochs, peers, got, peers*epochs)
	}
	head := ctl.rep.log.HeadEpoch()
	if got := nodes["ctl-2"].rep.log.HeadEpoch(); got != head {
		t.Fatalf("standby log at %d, leader at %d", got, head)
	}
	for _, name := range []string{"smux-1", "sw-1"} {
		if got := uint64(gauge(nodes[name], "wire.delta.epoch")); got != head {
			t.Fatalf("%s applied epoch %d, leader at %d", name, got, head)
		}
	}

	// Restart sw-1 blank. The next push meets a dead connection and forgets
	// its epoch; the round after probes it and replays the log from epoch 0.
	nodes["sw-1"].Close()
	sw, err := StartNode(spec, "sw-1")
	if err != nil {
		t.Fatalf("restart sw-1: %v", err)
	}
	nodes["sw-1"] = sw
	waitFor(t, "restarted sw-1 converges", func() bool {
		if ackedAll(ctl.rep) && uint64(gauge(sw, "wire.delta.epoch")) == ctl.rep.log.HeadEpoch() {
			return true
		}
		ctl.rep.advanceEpoch()
		return false
	})
	if got := counter(sw, "wire.delta.rejected"); got != 0 {
		t.Fatalf("restarted sw-1 rejected %d pushes", got)
	}
	if got := counter(ctl, "wire.controller.full_pushes"); got != 0 {
		t.Fatalf("a restart inside the horizon cost %d snapshot pushes", got)
	}
	if gauge(sw, "wire.vips") != 2 {
		t.Fatalf("restarted sw-1 holds %d VIPs, want 2", gauge(sw, "wire.vips"))
	}
}

// TestVIPStateVersion pins the delta-side fingerprint: identical states
// hash equal, and every receiver-visible field perturbs the hash — the gate
// that keeps a snapshot recovery from bumping steer epochs on unchanged
// VIPs.
func TestVIPStateVersion(t *testing.T) {
	mk := func() *delta.VIPState {
		return &delta.VIPState{
			Addr: packet.MustParseAddr("10.0.0.1"),
			Mode: 0, Tier: delta.TierHMux,
			Backends: []delta.Backend{{Addr: packet.MustParseAddr("100.0.0.1"), Weight: 2}},
		}
	}
	base := vipStateVersion(mk())
	if vipStateVersion(mk()) != base {
		t.Fatal("identical states hash differently")
	}
	muts := map[string]func(*delta.VIPState){
		"mode":   func(v *delta.VIPState) { v.Mode = 1 },
		"nic":    func(v *delta.VIPState) { v.Flags |= delta.FlagNic },
		"weight": func(v *delta.VIPState) { v.Backends[0].Weight = 3 },
		"backend": func(v *delta.VIPState) {
			v.Backends = append(v.Backends, delta.Backend{Addr: packet.MustParseAddr("100.0.0.2"), Weight: 1})
		},
		"snat": func(v *delta.VIPState) {
			v.SNAT = []delta.SNATBlock{{DIP: packet.MustParseAddr("100.0.0.1"), Lo: 1, Hi: 64}}
		},
	}
	for name, mut := range muts {
		v := mk()
		mut(v)
		if vipStateVersion(v) == base {
			t.Errorf("%s change did not perturb the fingerprint", name)
		}
	}
}
