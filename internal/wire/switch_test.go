package wire

// The switch role's programming step — Figure 9's switch agent, which lives
// in reconcileSwitch/programSwitch — driven on a bare Node: no sockets, the
// mirror edited by hand, the table-program trace read directly.

import (
	"runtime"
	"testing"

	"duet/internal/delta"
	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

var switchVIP = packet.MustParseAddr("10.0.0.1")

// switchNode is the switch-role state reconcileSwitch touches, with nothing
// listening: node ID 7, tables sized by cfg.
func switchNode(cfg hmux.Config) *Node {
	reg := telemetry.NewRegistry()
	return &Node{
		Reg: reg, Rec: telemetry.NewRecorder(16), self32: 7,
		hm:       hmux.New(cfg),
		swOps:    reg.Counter("switchagent.ops").Shard(),
		swOpErrs: reg.Counter("switchagent.op_errors").Shard(),
		vips:     reg.Gauge("wire.vips"),
		cfg:      delta.NewState(),
	}
}

// mirrorVIPs replaces the node's mirror with the given population and
// reconciles the addresses the change touches, as a snapshot push does.
func mirrorVIPs(t *testing.T, n *Node, vips ...VIPSpec) error {
	t.Helper()
	old := n.cfg
	n.cfg = configAt(t, n.cfg.Epoch+1, vips...)
	return n.reconcileSwitch(delta.Diff(old, n.cfg).Ops)
}

// programmed returns the table-program events the switch recorded after its
// first skip events, as (VIP, code) pairs: code 0 is an add, 1 a VIP's
// removal, 2 a DIP's.
func programmed(t *testing.T, n *Node, skip int) [][2]uint32 {
	t.Helper()
	var out [][2]uint32
	for _, ev := range n.Rec.Snapshot()[skip:] {
		if ev.Kind != telemetry.KindTableProgram || ev.Node != 7 {
			t.Fatalf("trace event %+v is not a table-program event of the switch", ev)
		}
		out = append(out, [2]uint32{ev.A, ev.B})
	}
	return out
}

var (
	added   = [2]uint32{uint32(switchVIP), 0}
	removed = [2]uint32{uint32(switchVIP), 1}
)

func oneBackend(weight uint32) VIPSpec {
	return VIPSpec{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.1", Weight: weight}}}
}

func TestAddVIPProgramsAndTraces(t *testing.T) {
	n := switchNode(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	if err := mirrorVIPs(t, n, oneBackend(1)); err != nil {
		t.Fatal(err)
	}
	if !n.hm.HasVIP(switchVIP) {
		t.Fatal("tables not programmed")
	}
	if got := programmed(t, n, 0); len(got) != 1 || got[0] != added {
		t.Fatalf("trace = %v, want one table-program add for the VIP", got)
	}
	if ops := n.Reg.Counter("switchagent.ops").Value(); ops != 1 {
		t.Fatalf("switchagent.ops = %d, want 1", ops)
	}
	if g := n.Reg.Gauge("wire.vips").Value(); g != 1 {
		t.Fatalf("wire.vips = %d, want 1", g)
	}

	// A changed VIP is set afresh: one op, which takes the old entries out
	// before it admits the new ones, traced as an add.
	if err := mirrorVIPs(t, n, oneBackend(3)); err != nil {
		t.Fatal(err)
	}
	if got := programmed(t, n, 1); len(got) != 1 || got[0] != added {
		t.Fatalf("set trace = %v, want one add", got)
	}
	if st := n.hm.Stats(); st.ECMPUsed != 1 || st.TunnelUsed != 1 {
		t.Fatalf("the set left the old entries charged: %+v", st)
	}
	// An identical re-apply (snapshot recovery) programs nothing.
	if err := mirrorVIPs(t, n, oneBackend(3)); err != nil {
		t.Fatal(err)
	}
	if got := programmed(t, n, 2); len(got) != 0 || n.Reg.Counter("switchagent.ops").Value() != 2 {
		t.Fatalf("identical re-apply programmed the switch: %v", got)
	}
}

func TestRemoveVIPWithdraws(t *testing.T) {
	n := switchNode(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	if err := mirrorVIPs(t, n, oneBackend(1)); err != nil {
		t.Fatal(err)
	}
	if err := mirrorVIPs(t, n); err != nil {
		t.Fatal(err)
	}
	if n.hm.HasVIP(switchVIP) {
		t.Fatal("VIP still in tables")
	}
	if got := programmed(t, n, 1); len(got) != 1 || got[0] != removed {
		t.Fatalf("trace = %v, want one table-program removal for the VIP", got)
	}
	if st := n.hm.Stats(); st.ECMPUsed != 0 || st.TunnelUsed != 0 {
		t.Fatalf("entries not released: %+v", st)
	}
}

// TestErrorsAcked: a failed operation changes no table and leaves no trace
// event, is counted, and reaches the leader as the push's error.
func TestErrorsAcked(t *testing.T) {
	cfg := hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1"))
	cfg.ECMPTableSize = 1
	n := switchNode(cfg)
	if err := n.programSwitch([]steer.Op{{Kind: steer.OpRemove, Addr: switchVIP}}); err == nil {
		t.Fatal("removing unknown VIP should fail")
	}
	two := VIPSpec{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.1"}, {Addr: "100.0.0.2"}}}
	if err := mirrorVIPs(t, n, two); err != hmux.ErrECMPTableFull {
		t.Fatalf("a VIP the tables cannot hold: got %v", err)
	}
	if n.hm.HasVIP(switchVIP) {
		t.Fatal("a refused VIP is in the tables")
	}
	if got := n.Reg.Counter("switchagent.op_errors").Value(); got != 2 {
		t.Fatalf("switchagent.op_errors = %d, want 2", got)
	}
	if got := n.Reg.Counter("switchagent.ops").Value(); got != 0 {
		t.Fatalf("switchagent.ops = %d, want 0", got)
	}
	if evs := n.Rec.Snapshot(); len(evs) != 0 {
		t.Fatalf("failed operations left trace events: %+v", evs)
	}
}

// TestSubmitRetainsNothing bounces one 8-backend VIP 10,000 times: a switch
// node lives as long as the fleet, so a programming step that keeps anything
// per applied op (the agent once kept a journal and an ack log: about 300 B
// per bounce) grows without bound at the controller's churn rate.
func TestSubmitRetainsNothing(t *testing.T) {
	n := switchNode(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	v := &service.VIP{Addr: switchVIP}
	for i := byte(1); i <= 8; i++ {
		v.Backends = append(v.Backends, service.Backend{Addr: packet.AddrFrom4(100, 0, 0, i), Weight: 1})
	}
	bounce := func(count int) {
		for i := 0; i < count; i++ {
			if err := n.programSwitch([]steer.Op{{Kind: steer.OpSet, Addr: switchVIP, VIP: v}}); err != nil {
				t.Fatal(err)
			}
			if err := n.programSwitch([]steer.Op{{Kind: steer.OpRemove, Addr: switchVIP}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	bounce(200) // tables and trace ring at their steady size
	before := heap()
	const bounces = 10000
	bounce(bounces)
	after := heap()
	if grown := int64(after) - int64(before); grown > 64*bounces {
		t.Fatalf("%d bounces retained %d B of heap (%d B each), want < 64 B each", bounces, grown, grown/bounces)
	}
	runtime.KeepAlive(n)
}
