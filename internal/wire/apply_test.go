package wire

// Tests for the receiver side of delta replication, driven by hand over a
// node's control socket (no controller in the spec, so nothing else pushes).

import (
	"errors"
	"net"
	"strings"
	"testing"

	"duet/internal/delta"
	"duet/internal/packet"
)

// dataplaneSpec is one node of each dataplane role and no controller.
func dataplaneSpec(t testing.TB) *ClusterSpec {
	return &ClusterSpec{
		Nodes: []NodeSpec{
			{Name: "smux-1", Role: RoleSMux, Self: "20.0.0.1", Data: freeUDP(t), Control: freeTCP(t)},
			{Name: "host-1", Role: RoleHostAgent, Self: "100.0.0.1", Data: freeUDP(t), Control: freeTCP(t)},
			{Name: "sw-1", Role: RoleSwitch, Self: "1.0.0.1", Data: freeUDP(t), Control: freeTCP(t)},
		},
		ScrapeMillis: 25,
	}
}

// configAt projects a VIP population into the replicated state at epoch,
// the way the leading controller bootstraps from its spec.
func configAt(t testing.TB, epoch uint64, vips ...VIPSpec) *delta.State {
	t.Helper()
	st, err := specState(&ClusterSpec{VIPs: vips}, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// oneVIPState is epoch 1 of the hand-driven config: 10.0.0.1 → 100.0.0.1.
func oneVIPState(t testing.TB) *delta.State {
	return configAt(t, 1, VIPSpec{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.1"}}})
}

func pushDelta(c *ControlClient, d *delta.Delta) (*Envelope, error) {
	return pushDeltaAt(c, 1, d)
}

func pushDeltaAt(c *ControlClient, term uint64, d *delta.Delta) (*Envelope, error) {
	return c.CallE(&Envelope{Type: MsgDeltaPush, Name: "test", Term: term, Epoch: d.ToEpoch, Delta: d.Encode()})
}

// refuseStaleTerm sends a follower that has admitted term 2 a term-1 probe
// (a push without a delta) and a term-1 push of d, a delta it would
// otherwise apply: the leader fence must refuse both, and each ack must
// carry term 2 and the follower's applied epoch.
func refuseStaleTerm(t *testing.T, c *ControlClient, applied uint64, d *delta.Delta) {
	t.Helper()
	for _, env := range []*Envelope{
		{Type: MsgDeltaPush, Name: "test", Term: 1, Epoch: d.ToEpoch},
		{Type: MsgDeltaPush, Name: "test", Term: 1, Epoch: d.ToEpoch, Delta: d.Encode()},
	} {
		ack, err := c.CallE(env)
		var rej *RejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("term-1 %s after term 2: want RejectedError, got %v", env.Type, err)
		}
		if ack.Term != 2 || ack.Epoch != applied {
			t.Fatalf("term-1 %s refused with term %d, epoch %d; want term 2, epoch %d", env.Type, ack.Term, ack.Epoch, applied)
		}
	}
}

func mirror(n *Node) *delta.State {
	n.cfgMu.Lock()
	defer n.cfgMu.Unlock()
	return n.cfg.Clone()
}

// sameState: same epoch and nothing to change between the two.
func sameState(a, b *delta.State) bool {
	return a.Epoch == b.Epoch && len(delta.Diff(a, b).Ops) == 0
}

// TestRejectedDeltaDoesNotHalfApply pushes a delta whose first op is fine and
// whose second diverges from the mirror. The rejection must leave the mirror
// at its pre-state — otherwise the leader's corrected delta, which repeats
// the first op, fails on a diverged old state forever.
func TestRejectedDeltaDoesNotHalfApply(t *testing.T) {
	spec := dataplaneSpec(t)
	sm, err := StartNode(spec, "smux-1")
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	c := DialControl(sm.ControlAddr(), sm.Reg)
	defer c.Close()

	st1 := oneVIPState(t)
	if _, err := pushDelta(c, delta.Diff(delta.NewState(), st1)); err != nil {
		t.Fatalf("bootstrap push: %v", err)
	}

	st2 := configAt(t, 2,
		VIPSpec{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.1", Weight: 3}}},
		VIPSpec{Addr: "10.0.0.2", Backends: []BackendSpec{{Addr: "100.0.0.1"}}})
	vip2 := packet.MustParseAddr("10.0.0.2")
	good := delta.Diff(st1, st2) // vip1 reweighed, then vip2 added
	if len(good.Ops) != 2 {
		t.Fatalf("want a two-op delta, got %d ops", len(good.Ops))
	}
	bad := &delta.Delta{FromEpoch: 1, ToEpoch: 2, Ops: append([]delta.Op(nil), good.Ops...)}
	bad.Ops[1].Old = bad.Ops[1].New // claims vip2 is present; the mirror lacks it

	pre := mirror(sm)
	rejected := counter(sm, "wire.delta.rejected")
	ack, err := pushDelta(c, bad)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("diverged delta: want RejectedError, got %v", err)
	}
	if ack.Epoch != 1 || gauge(sm, "wire.delta.epoch") != 1 {
		t.Fatalf("applied epoch moved: ack %d, gauge %d", ack.Epoch, gauge(sm, "wire.delta.epoch"))
	}
	if got := counter(sm, "wire.delta.rejected"); got != rejected+1 {
		t.Fatalf("wire.delta.rejected = %d, want %d", got, rejected+1)
	}
	if !sameState(mirror(sm), pre) {
		t.Fatal("rejected delta left its first op in the mirror")
	}
	if sm.pair.SMux.HasVIP(vip2) {
		t.Fatal("rejected delta programmed the SMux")
	}

	if ack, err = pushDelta(c, good); err != nil {
		t.Fatalf("the correct delta no longer applies after the rejection: %v", err)
	}
	if ack.Epoch != 2 || !sm.pair.SMux.HasVIP(vip2) || !sameState(mirror(sm), st2) {
		t.Fatalf("correct delta applied to epoch %d, vip2 programmed %v", ack.Epoch, sm.pair.SMux.HasVIP(vip2))
	}
}

// TestDataplaneRolesRejectOtherMessages: hello, leader-heartbeat and
// delta-push are the whole vocabulary of a dataplane node. Anything else —
// controller-bound messages and the retired per-VIP numbers alike — is a
// rejection that names the type and touches nothing, and so is a heartbeat
// or push below the leader term the node has admitted (only the push counts
// as a rejected delta). On the data port, a frame whose header does not
// verify is one drop, counted under the first stage that parses it
// (malformed) and under no other.
func TestDataplaneRolesRejectOtherMessages(t *testing.T) {
	spec := dataplaneSpec(t)
	spec.Nodes[0].NMuxTable = 64 // the smux node's first stage is its NIC table
	roles := []struct {
		node      string
		tables    func(n *Node) int
		malformed string
	}{
		{"smux-1", func(n *Node) int { return n.pair.SMux.NumVIPs() }, "nmux.drops.malformed"},
		{"host-1", func(n *Node) int { return len(n.agent.LocalDIPs(packet.MustParseAddr("10.0.0.1"))) }, "hostagent.drops.decap_error"},
		{"sw-1", func(n *Node) int { return n.hm.Stats().VIPs }, "hmux.drops.malformed"},
	}
	// A tunnel to the host whose outer checksum is off: what every role
	// verifies first, except the host agent, which verifies it last.
	bad, err := packet.Encapsulate(nil, packet.MustParseAddr("20.0.0.1"), packet.MustParseAddr("100.0.0.1"),
		packet.BuildTCP(packet.FiveTuple{
			Src: packet.MustParseAddr("30.0.0.1"), Dst: packet.MustParseAddr("10.0.0.1"),
			SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP,
		}, packet.TCPSyn, nil), 64)
	if err != nil {
		t.Fatal(err)
	}
	bad[11] ^= 0xff
	gauges := []string{"wire.vips", "wire.dips", "wire.delta.epoch"}
	for _, role := range roles {
		t.Run(role.node, func(t *testing.T) {
			n, err := StartNode(spec, role.node)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			c := DialControl(n.ControlAddr(), n.Reg)
			defer c.Close()
			st1 := oneVIPState(t)
			if _, err := pushDeltaAt(c, 2, delta.Diff(delta.NewState(), st1)); err != nil {
				t.Fatalf("bootstrap push: %v", err)
			}
			if role.tables(n) != 1 {
				t.Fatalf("bootstrap push programmed %d table entries, want 1", role.tables(n))
			}
			pre := mirror(n)
			before := make(map[string]int64)
			for _, g := range gauges {
				before[g] = gauge(n, g)
			}
			applied := counter(n, "wire.delta.applied")
			rejected := counter(n, "wire.delta.rejected")

			refuseStaleTerm(t, c, 1, delta.Diff(st1, configAt(t, 2))) // would empty every table
			if got := counter(n, "wire.delta.rejected"); got != rejected+1 {
				t.Fatalf("wire.delta.rejected = %d after a stale probe and push, want %d", got, rejected+1)
			}

			for _, typ := range []MsgType{
				MsgSnapshotRequest,
				2, 3, 4, 6, 7, 8, 10, 11, // the retired add-vip … nmux-remove
				5, 13, 15, // the retired health report, delta ack and leader heartbeat
			} {
				_, err := c.CallE(&Envelope{Type: typ, Name: "test"})
				var rej *RejectedError
				if !errors.As(err, &rej) {
					t.Fatalf("%s: want RejectedError, got %v", typ, err)
				}
				if rej.Type != typ || !strings.Contains(rej.Reason, typ.String()) {
					t.Fatalf("%s: rejection does not name the type: %v", typ, err)
				}
			}

			if role.tables(n) != 1 || !sameState(mirror(n), pre) || counter(n, "wire.delta.applied") != applied {
				t.Fatal("a rejected message changed the node's tables or mirror")
			}
			for _, g := range gauges {
				if got := gauge(n, g); got != before[g] {
					t.Fatalf("gauge %s moved %d → %d on rejected messages", g, before[g], got)
				}
			}

			client, err := net.Dial("udp", n.DataAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, err := client.Write(AppendFrame(nil, bad)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, role.malformed, func() bool { return counter(n, role.malformed) == 1 })
			for _, c := range n.Reg.Counters() {
				if name := c.Name(); name != role.malformed && strings.Contains(name, ".drops.") && c.Value() != 0 {
					t.Errorf("%s = %d after one malformed frame, want 0", name, c.Value())
				}
			}
			if got := counter(n, "smux.packets"); got != 0 {
				t.Errorf("smux.packets = %d: the SMux behind the NIC table saw the frame", got)
			}
		})
	}
}
