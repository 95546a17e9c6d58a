package wire

import (
	"slices"
	"testing"

	"duet/internal/assign"
	"duet/internal/controller"
	"duet/internal/core"
	"duet/internal/delta"
	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/topology"
)

// TestReplicatedRemovalIsResilient: a delta that only takes a DIP out of a
// VIP moves that DIP's flows alone, on every table of a duetd node (paper
// §5.1). A switch node and an SMux node with a NIC table hold a stateless, a
// stateful and a NIC VIP of 10 DIPs each; 4,096 flows per VIP are served on
// each tier, then a delta removes one DIP of each. A flow on a surviving DIP
// keeps it on every tier; one on the removed DIP — a stateful connection, a
// NIC flow entry — goes to a live DIP. Twin check: a core.Cluster given the
// same population, one copy on a switch and one on the SMuxes and NICs,
// serving the same flows and removing the same DIPs through the controller's
// RemoveDIP, picks what the duetd nodes pick on every tier.
func TestReplicatedRemovalIsResilient(t *testing.T) {
	spec := dataplaneSpec(t)
	spec.Nodes[0].NMuxTable = 8192
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

	const dips, flows = 10, 4096
	vip := func(i byte, mode string, nic bool) VIPSpec {
		v := VIPSpec{Addr: packet.AddrFrom4(10, 0, 0, i).String(), Mode: mode, Nic: nic}
		for d := byte(1); d <= dips; d++ {
			v.Backends = append(v.Backends, BackendSpec{Addr: packet.AddrFrom4(100, 0, i, d).String()})
		}
		return v
	}
	pop := []VIPSpec{vip(1, "stateless", false), vip(2, "stateful", false), vip(3, "stateful", true)}
	st1 := configAt(t, 1, pop...)
	st2 := st1.Clone()
	st2.Epoch = 2
	gone := map[packet.Addr]packet.Addr{}
	for a, v := range st2.VIPs {
		gone[a] = v.Backends[3].Addr
		v.Backends = append(v.Backends[:3], v.Backends[4:]...)
	}
	stateless, stateful, nicVIP := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2), packet.AddrFrom4(10, 0, 0, 3)

	// The twins: the population in address order, as the mirror holds it.
	twin := func(hw bool) *core.Cluster {
		c, err := core.New(core.Config{Topology: topology.TestbedConfig(), NumSMuxes: 1, NMuxTableSize: 8192})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range st1.Addrs() {
			err := c.AddVIP(side(st1.VIPs[a], true, false).VIP)
			switch {
			case err != nil:
			case hw:
				err = c.Place(core.Target{Addr: a, Switches: []topology.SwitchID{0}})
			case a == stateless:
				err = c.SetVIPMode(a, steer.ModeStateless)
			case a == nicVIP:
				err = c.AssignToNMux(a)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	hw, soft := twin(true), twin(false)

	type pick func(packet.FiveTuple) packet.Addr
	lookup := func(l func(packet.FiveTuple) (packet.Addr, error)) pick {
		return func(tu packet.FiveTuple) packet.Addr {
			d, err := l(tu)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	smuxPick := func(m *smux.Mux) pick {
		return func(tu packet.FiveTuple) packet.Addr {
			res, err := m.Process(packet.BuildTCP(tu, packet.TCPAck, nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			return res.Encap
		}
	}
	nicPick := func(m *nmux.Mux) pick {
		return func(tu packet.FiveTuple) packet.Addr {
			res, err := m.Process(packet.BuildTCP(tu, packet.TCPAck, nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			return res.Encap
		}
	}
	tiers := []struct {
		name       string
		vip        packet.Addr
		wire, twin pick
	}{
		{"switch, stateless VIP", stateless, lookup(sw.hm.Lookup), lookup(hw.HMuxes[0].Lookup)},
		{"switch, stateful VIP", stateful, lookup(sw.hm.Lookup), lookup(hw.HMuxes[0].Lookup)},
		{"switch, NIC VIP", nicVIP, lookup(sw.hm.Lookup), lookup(hw.HMuxes[0].Lookup)},
		{"stateless smux", stateless, smuxPick(sm.pair.SMux), smuxPick(soft.SMuxes[0])},
		{"stateful smux", stateful, smuxPick(sm.pair.SMux), smuxPick(soft.SMuxes[0])},
		{"nic", nicVIP, nicPick(sm.pair.NIC), nicPick(soft.NMuxes[0])},
	}
	flow := func(vip packet.Addr, i int) packet.FiveTuple {
		return packet.FiveTuple{Src: packet.AddrFrom4(30, 0, byte(i>>8), byte(i)), Dst: vip,
			SrcPort: uint16(20000 + i), DstPort: 80, Proto: packet.ProtoTCP}
	}
	// served runs every flow through a tier's wire and twin tables, which
	// must agree, and returns the wire picks.
	served := func(i int) []packet.Addr {
		tr := tiers[i]
		out := make([]packet.Addr, flows)
		for f := range out {
			tu := flow(tr.vip, f)
			if out[f] = tr.wire(tu); tr.twin(tu) != out[f] {
				t.Fatalf("%s: flow %d picks %s on the duetd node, %s on the core twin", tr.name, f, out[f], tr.twin(tu))
			}
		}
		return out
	}

	push(delta.Diff(delta.NewState(), st1))
	before := make([][]packet.Addr, len(tiers))
	for i := range tiers {
		before[i] = served(i)
	}
	push(delta.Diff(st1, st2))
	for _, c := range []*core.Cluster{hw, soft} {
		ct := controller.New(c, assign.DefaultOptions())
		for a, d := range gone {
			if err := ct.RemoveDIP(a, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, tr := range tiers {
		after, moved := served(i), 0
		for f, d := range after {
			switch was := before[i][f]; {
			case was != gone[tr.vip] && d != was:
				t.Fatalf("%s: flow %d on surviving DIP %s moved to %s", tr.name, f, was, d)
			case was == gone[tr.vip] && !slices.ContainsFunc(st2.VIPs[tr.vip].Backends, func(b delta.Backend) bool { return b.Addr == d }):
				t.Fatalf("%s: flow %d of the removed DIP %s went to %s, not a live DIP", tr.name, f, was, d)
			case was == gone[tr.vip]:
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("%s: no flow was on the removed DIP; the test is vacuous", tr.name)
		}
	}
}
