package switchagent

import (
	"runtime"
	"testing"

	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/telemetry"
)

var vip = packet.MustParseAddr("10.0.0.1")

func backends(addrs ...string) []service.Backend {
	out := make([]service.Backend, len(addrs))
	for i, a := range addrs {
		out[i] = service.Backend{Addr: packet.MustParseAddr(a), Weight: 1}
	}
	return out
}

// recorder captures routing side effects.
type recorder struct {
	announced []packet.Prefix
	withdrawn []packet.Prefix
}

func (r *recorder) Announce(p packet.Prefix) { r.announced = append(r.announced, p) }
func (r *recorder) Withdraw(p packet.Prefix) { r.withdrawn = append(r.withdrawn, p) }

func newAgent(t *testing.T) (*Agent, *recorder) {
	t.Helper()
	rec := &recorder{}
	mux := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	return New(mux, rec), rec
}

func TestAddVIPProgramsAndAnnounces(t *testing.T) {
	a, rec := newAgent(t)
	reg, trace := telemetry.NewRegistry(), telemetry.NewRecorder(16)
	a.SetTelemetry(reg, trace, 7)
	if err := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: vip, Backends: backends("100.0.0.1")}}); err != nil {
		t.Fatal(err)
	}
	if !a.Mux().HasVIP(vip) {
		t.Fatal("tables not programmed")
	}
	if len(rec.announced) != 1 || rec.announced[0] != packet.HostPrefix(vip) {
		t.Fatalf("announcements: %+v", rec.announced)
	}
	if got := reg.Counter("switchagent.ops").Value(); got != 1 {
		t.Fatalf("switchagent.ops = %d, want 1", got)
	}
	evs := trace.Snapshot()
	if len(evs) != 1 || evs[0].Kind != telemetry.KindTableProgram || evs[0].Node != 7 ||
		evs[0].A != uint32(vip) || evs[0].B != uint32(OpAddVIP) {
		t.Fatalf("trace = %+v, want one table-program event for the VIP", evs)
	}
}

func TestRemoveVIPWithdraws(t *testing.T) {
	a, rec := newAgent(t)
	if err := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: vip, Backends: backends("100.0.0.1")}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(Op{Kind: OpRemoveVIP, Addr: vip}); err != nil {
		t.Fatal(err)
	}
	if a.Mux().HasVIP(vip) {
		t.Fatal("VIP still in tables")
	}
	if len(rec.withdrawn) != 1 {
		t.Fatalf("withdrawals: %+v", rec.withdrawn)
	}
}

func TestErrorsAcked(t *testing.T) {
	a, rec := newAgent(t)
	reg := telemetry.NewRegistry()
	a.SetTelemetry(reg, nil, 1)
	if err := a.Submit(Op{Kind: OpRemoveVIP, Addr: vip}); err == nil {
		t.Fatal("removing unknown VIP should fail")
	}
	if err := a.Submit(Op{Kind: OpKind(99)}); err == nil {
		t.Fatal("unknown op should fail")
	}
	if len(rec.withdrawn) != 0 {
		t.Fatalf("a failed removal withdrew %+v", rec.withdrawn)
	}
	if got := reg.Counter("switchagent.op_errors").Value(); got != 2 {
		t.Fatalf("switchagent.op_errors = %d, want 2", got)
	}
	if err := New(nil, nil).Submit(Op{Kind: OpAddVIP}); err != ErrNoMux {
		t.Fatalf("got %v", err)
	}
}

func TestOpKindString(t *testing.T) {
	kinds := []OpKind{OpAddVIP, OpRemoveVIP, OpKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty name for %d", k)
		}
	}
}

func TestNilAnnouncerTableOnly(t *testing.T) {
	mux := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	a := New(mux, nil)
	if err := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: vip, Backends: backends("100.0.0.1")}}); err != nil {
		t.Fatal(err)
	}
	if !mux.HasVIP(vip) {
		t.Fatal("tables not programmed without announcer")
	}
}

// TestSubmitRetainsNothing bounces one 8-backend VIP 10,000 times: a switch
// node lives as long as the fleet, so an agent that keeps anything per
// applied op (it kept a journal and an ack log: about 300 B per bounce) grows
// without bound at the controller's churn rate.
func TestSubmitRetainsNothing(t *testing.T) {
	a := New(hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1"))), nil)
	v := &service.VIP{Addr: vip, Backends: backends(
		"100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4",
		"100.0.0.5", "100.0.0.6", "100.0.0.7", "100.0.0.8")}
	bounce := func(n int) {
		for i := 0; i < n; i++ {
			if err := a.Submit(Op{Kind: OpAddVIP, VIP: v}); err != nil {
				t.Fatal(err)
			}
			if err := a.Submit(Op{Kind: OpRemoveVIP, Addr: vip}); err != nil {
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
	bounce(100) // tables and announcer at their steady size
	before := heap()
	const bounces = 10000
	bounce(bounces)
	after := heap()
	if grown := int64(after) - int64(before); grown > 64*bounces {
		t.Fatalf("%d bounces retained %d B of heap (%d B each), want < 64 B each", bounces, grown, grown/bounces)
	}
	runtime.KeepAlive(a)
}
