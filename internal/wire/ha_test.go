package wire

// Tests for controller replication and HA: delta propagation under churn,
// standby tailing, kill-the-leader takeover with zero full re-pushes, and
// the snapshot recovery path for a blank restart behind the compaction
// horizon or a peer that refuses a delta where it stands.

import (
	"errors"
	"sync/atomic"
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
// probe before it. A dataplane node restarted blank inside the
// compaction horizon is found by a probe after the failed push, and is
// replayed in deltas: no rejection, no snapshot.
func TestEpochCostsOneCallPerPeer(t *testing.T) {
	spec := testHASpec(t)
	spec.Nodes[3] = NodeSpec{Name: "sw-1", Role: RoleSwitch, Self: "1.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: freeTCP(t)}
	spec.ChurnMillis = 0      // the test drives the epochs
	spec.ResyncMillis = 60000 // no periodic round inside the test …
	spec.LeaseMillis = 60000  // … nor a standby takeover
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

// TestStandbyRefusesStaleTerm: a standby controller is fenced like a
// dataplane node. Once it has admitted term 2, a term-1 probe and a term-1
// push are refused with its term and log head on the ack, and the push
// leaves the log where it was.
func TestStandbyRefusesStaleTerm(t *testing.T) {
	spec := testHASpec(t)
	spec.Nodes = spec.Nodes[:2]
	spec.ChurnMillis = 0
	spec.LeaseMillis = 60000 // ctl-2 (rank 1) never takes over inside the test
	ctl, err := StartNode(spec, "ctl-2")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	c := DialControl(ctl.ControlAddr(), ctl.Reg)
	defer c.Close()

	st1 := oneVIPState(t)
	if _, err := pushDeltaAt(c, 2, delta.Diff(delta.NewState(), st1)); err != nil {
		t.Fatalf("term-2 push: %v", err)
	}
	refuseStaleTerm(t, c, 1, delta.Diff(st1, configAt(t, 2)))
	if got := ctl.rep.log.HeadEpoch(); got != 1 {
		t.Fatalf("standby log head moved to %d on a stale push, want 1", got)
	}
	if !sameState(ctl.rep.log.Head(), st1) {
		t.Fatal("a stale push changed the standby's log head")
	}
	if ctl.rep.isLeader() {
		t.Fatal("the standby took leadership")
	}
}

// TestRefusingPeerDoesNotSpin: a peer that answers probes but refuses every
// delta, staying at the push's from-epoch (a decode refusal, codec skew),
// costs the leader at most one delta push and one snapshot push per resync
// round, where resending the same delta at once would never end the round;
// and the leader's Close is not held up by the peer's push session.
func TestRefusingPeerDoesNotSpin(t *testing.T) {
	var pushes atomic.Int64
	stub, err := ListenControl("127.0.0.1:0", nil, func(env, ack *Envelope) error {
		ack.Term = env.Term // the stub stands at epoch 0 and never fences
		if len(env.Delta) == 0 {
			return nil
		}
		pushes.Add(1)
		return errors.New("refused")
	})
	if err != nil {
		t.Fatal(err)
	}
	const interval = 100 * time.Millisecond
	spec := &ClusterSpec{
		Nodes: []NodeSpec{
			{Name: "ctl", Role: RoleController, Control: freeTCP(t)},
			{Name: "smux-1", Role: RoleSMux, Self: "20.0.0.1", Data: freeUDP(t), Control: stub.Addr()},
		},
		VIPs:         []VIPSpec{{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.1"}}}},
		ResyncMillis: int(interval / time.Millisecond),
	}
	ctl, err := StartNode(spec, "ctl")
	if err != nil {
		stub.Close()
		t.Fatal(err)
	}
	defer func() {
		stub.Close() // first: a session still resending ends on the dead connection
		ctl.Close()
	}()

	waitFor(t, "the first push", func() bool { return pushes.Load() >= 1 })
	start := time.Now()
	time.Sleep(5 * interval)
	got, rounds := pushes.Load(), int64(time.Since(start)/interval)+2
	if got > 2*rounds {
		t.Fatalf("the refusing peer got %d pushes in about %d resync rounds, want at most %d", got, rounds, 2*rounds)
	}
	if n := counter(ctl, "wire.controller.full_pushes"); n != 0 {
		t.Fatalf("full_pushes = %d for refused snapshots, want 0", n)
	}

	closed := make(chan struct{})
	go func() { ctl.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked by the refused peer's push session")
	}
}

// TestDivergedMirrorConvergesBySnapshot: a dataplane node whose mirror holds
// another config at the leader's epoch refuses the next delta, whose old
// state it does not match. The leader falls back to one snapshot push, whose
// diff from the mirror corrects it, and the deltas after it apply.
func TestDivergedMirrorConvergesBySnapshot(t *testing.T) {
	spec := &ClusterSpec{
		Nodes: []NodeSpec{
			{Name: "ctl", Role: RoleController, Control: freeTCP(t)},
			{Name: "smux-1", Role: RoleSMux, Self: "20.0.0.1", Data: freeUDP(t), Control: freeTCP(t)},
		},
		VIPs:         []VIPSpec{{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.1"}}}},
		ResyncMillis: 50,
		ChurnMillis:  60,
		ChurnSeed:    7,
	}
	sm, err := StartNode(spec, "smux-1")
	if err != nil {
		t.Fatal(err)
	}
	c := DialControl(sm.ControlAddr(), sm.Reg)
	defer c.Close()
	diverged := configAt(t, 1, VIPSpec{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.9"}}})
	if _, err := pushDelta(c, delta.Diff(delta.NewState(), diverged)); err != nil {
		sm.Close()
		t.Fatal(err)
	}
	ctl, err := StartNode(spec, "ctl")
	if err != nil {
		sm.Close()
		t.Fatal(err)
	}
	defer func() {
		sm.Close() // first: a session still resending ends on the dead connection
		ctl.Close()
	}()

	vip, dip := packet.MustParseAddr("10.0.0.1"), packet.MustParseAddr("100.0.0.1")
	waitFor(t, "the diverged node converges and takes deltas again", func() bool {
		m := mirror(sm)
		v := m.VIPs[vip]
		return m.Epoch >= 4 && v != nil && len(v.Backends) == 1 && v.Backends[0].Addr == dip
	})
	if got := counter(ctl, "wire.controller.full_pushes"); got != 1 {
		t.Fatalf("wire.controller.full_pushes = %d, want 1", got)
	}
	if got := counter(sm, "wire.delta.rejected"); got != 1 {
		t.Fatalf("wire.delta.rejected = %d on the diverged node, want 1", got)
	}
}
