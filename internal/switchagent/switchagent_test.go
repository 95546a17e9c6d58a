package switchagent

import (
	"math"
	"runtime"
	"testing"

	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/telemetry"
)

var vip = packet.MustParseAddr("10.0.0.1")

// fig14 is the §7.3 table-programming calibration (Figure 14).
var fig14 = Timing{
	AddVIPFIB:    0.400,
	RemoveVIPFIB: 0.350,
	AddDIPs:      0.060,
	RemoveDIPs:   0.050,
	BGP:          0.035,
}

func backends(addrs ...string) []service.Backend {
	out := make([]service.Backend, len(addrs))
	for i, a := range addrs {
		out[i] = service.Backend{Addr: packet.MustParseAddr(a), Weight: 1}
	}
	return out
}

// recorder captures routing side effects.
type recorder struct {
	announced []event
	withdrawn []event
}

type event struct {
	p  packet.Prefix
	at float64
}

func (r *recorder) Announce(p packet.Prefix, at float64) {
	r.announced = append(r.announced, event{p, at})
}
func (r *recorder) Withdraw(p packet.Prefix, at float64) {
	r.withdrawn = append(r.withdrawn, event{p, at})
}

func newAgent(t *testing.T, timing Timing) (*Agent, *recorder) {
	t.Helper()
	rec := &recorder{}
	mux := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	return New(mux, rec, timing), rec
}

func TestAddVIPProgramsAndAnnounces(t *testing.T) {
	a, rec := newAgent(t, fig14)
	ack := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: vip, Backends: backends("100.0.0.1")}}, 1.0)
	if ack.Err != nil {
		t.Fatal(ack.Err)
	}
	// Figure 14: done after DIPs + FIB; routed BGP later.
	wantDone := 1.0 + 0.060 + 0.400
	if math.Abs(ack.DoneAt-wantDone) > 1e-9 {
		t.Fatalf("DoneAt = %v, want %v", ack.DoneAt, wantDone)
	}
	if math.Abs(ack.RoutedAt-(wantDone+0.035)) > 1e-9 {
		t.Fatalf("RoutedAt = %v", ack.RoutedAt)
	}
	if !a.Mux().HasVIP(vip) {
		t.Fatal("tables not programmed")
	}
	if len(rec.announced) != 1 || rec.announced[0].p != packet.HostPrefix(vip) {
		t.Fatalf("announcements: %+v", rec.announced)
	}
	if math.Abs(rec.announced[0].at-ack.RoutedAt) > 1e-9 {
		t.Fatal("announcement visibility != RoutedAt")
	}
}

func TestOpsSerializeOnASIC(t *testing.T) {
	a, _ := newAgent(t, fig14)
	ack1 := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: vip, Backends: backends("100.0.0.1")}}, 0)
	// Second op submitted while the first is still programming: it queues.
	vip2 := packet.MustParseAddr("10.0.0.2")
	ack2 := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: vip2, Backends: backends("100.0.0.2")}}, 0.001)
	if ack2.DoneAt <= ack1.DoneAt {
		t.Fatalf("ops did not serialize: %v then %v", ack1.DoneAt, ack2.DoneAt)
	}
	if math.Abs(ack2.DoneAt-(ack1.DoneAt+0.460)) > 1e-9 {
		t.Fatalf("queued op timing wrong: %v", ack2.DoneAt)
	}
}

func TestRemoveVIPWithdraws(t *testing.T) {
	a, rec := newAgent(t, fig14)
	if ack := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: vip, Backends: backends("100.0.0.1")}}, 0); ack.Err != nil {
		t.Fatal(ack.Err)
	}
	ack := a.Submit(Op{Kind: OpRemoveVIP, Addr: vip}, 2.0)
	if ack.Err != nil {
		t.Fatal(ack.Err)
	}
	if a.Mux().HasVIP(vip) {
		t.Fatal("VIP still in tables")
	}
	if len(rec.withdrawn) != 1 {
		t.Fatalf("withdrawals: %+v", rec.withdrawn)
	}
}

func TestRemoveDIPNoRouteChurn(t *testing.T) {
	a, rec := newAgent(t, fig14)
	if ack := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: vip, Backends: backends("100.0.0.1", "100.0.0.2")}}, 0); ack.Err != nil {
		t.Fatal(ack.Err)
	}
	before := len(rec.announced) + len(rec.withdrawn)
	ack := a.Submit(Op{Kind: OpRemoveDIP, Addr: vip, DIP: packet.MustParseAddr("100.0.0.1")}, 2.0)
	if ack.Err != nil {
		t.Fatal(ack.Err)
	}
	if len(rec.announced)+len(rec.withdrawn) != before {
		t.Fatal("DIP removal churned routes; it must be table-only")
	}
	if ack.RoutedAt != ack.DoneAt {
		t.Fatal("table-only op should have RoutedAt == DoneAt")
	}
}

func TestTIPLifecycle(t *testing.T) {
	a, rec := newAgent(t, fig14)
	tip := packet.MustParseAddr("20.0.0.1")
	if ack := a.Submit(Op{Kind: OpAddTIP, Addr: tip, Backends: backends("100.0.0.1")}, 0); ack.Err != nil {
		t.Fatal(ack.Err)
	}
	if !a.Mux().HasTIP(tip) {
		t.Fatal("TIP not programmed")
	}
	if len(rec.announced) != 1 {
		t.Fatal("TIP must be announced (it is a routable IP, §5.2)")
	}
	if ack := a.Submit(Op{Kind: OpRemoveTIP, Addr: tip}, 1); ack.Err != nil {
		t.Fatal(ack.Err)
	}
	if a.Mux().HasTIP(tip) || len(rec.withdrawn) != 1 {
		t.Fatal("TIP removal incomplete")
	}
}

func TestErrorsAcked(t *testing.T) {
	a, _ := newAgent(t, Instant())
	ack := a.Submit(Op{Kind: OpRemoveVIP, Addr: vip}, 0)
	if ack.Err == nil {
		t.Fatal("removing unknown VIP should fail")
	}
	ack = a.Submit(Op{Kind: OpKind(99)}, 0)
	if ack.Err == nil {
		t.Fatal("unknown op should fail")
	}
	nilAgent := New(nil, nil, Instant())
	if ack := nilAgent.Submit(Op{Kind: OpAddVIP}, 0); ack.Err != ErrNoMux {
		t.Fatalf("got %v", ack.Err)
	}
}

func TestOpKindString(t *testing.T) {
	kinds := []OpKind{OpAddVIP, OpRemoveVIP, OpRemoveDIP, OpAddTIP, OpRemoveTIP, OpKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty name for %d", k)
		}
	}
}

func TestNilAnnouncerTableOnly(t *testing.T) {
	mux := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	a := New(mux, nil, Instant())
	ack := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: vip, Backends: backends("100.0.0.1")}}, 0)
	if ack.Err != nil {
		t.Fatal(ack.Err)
	}
	if !mux.HasVIP(vip) {
		t.Fatal("tables not programmed without announcer")
	}
}

// TestBacklogTracking checks the convergence-lag signal the obs watchdog
// consumes: queued FIB operations (0.4s apiece, §7.3) extend the backlog the
// switchagent.backlog_ms gauge reports.
func TestBacklogTracking(t *testing.T) {
	a, _ := newAgent(t, fig14)
	reg := telemetry.NewRegistry()
	a.SetTelemetry(reg, nil, 1)

	// Three AddVIP ops submitted at t=0 serialize on the ASIC: each costs
	// 0.46s (0.4 VIP FIB + 0.06 DIP install), so the queue extends to
	// 1.38s while "now" is still 0.
	for i := 0; i < 3; i++ {
		v := packet.AddrFrom4(10, 0, 0, byte(i+1))
		if ack := a.Submit(Op{Kind: OpAddVIP, VIP: &service.VIP{Addr: v, Backends: backends("100.0.0.1")}}, 0); ack.Err != nil {
			t.Fatal(ack.Err)
		}
	}
	if got := reg.Gauge("switchagent.backlog_ms").Value(); got != 1380 {
		t.Fatalf("switchagent.backlog_ms = %d, want 1380", got)
	}
	// An op submitted after the queue drained waits for nothing.
	if ack := a.Submit(Op{Kind: OpRemoveDIP, Addr: packet.AddrFrom4(10, 0, 0, 1), DIP: packet.MustParseAddr("100.0.0.1")}, 2.0); ack.Err != nil {
		t.Fatal(ack.Err)
	}
	if got := reg.Gauge("switchagent.backlog_ms").Value(); got < 49 || got > 50 {
		t.Fatalf("switchagent.backlog_ms after the queue drained = %d, want the op's own 50", got)
	}
}

// TestSubmitRetainsNothing bounces one 8-backend VIP 10,000 times: a switch
// node lives as long as the fleet, so an agent that keeps anything per
// applied op (it kept a journal and an ack log: about 300 B per bounce) grows
// without bound at the controller's churn rate.
func TestSubmitRetainsNothing(t *testing.T) {
	a := New(hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1"))), nil, Instant())
	v := &service.VIP{Addr: vip, Backends: backends(
		"100.0.0.1", "100.0.0.2", "100.0.0.3", "100.0.0.4",
		"100.0.0.5", "100.0.0.6", "100.0.0.7", "100.0.0.8")}
	bounce := func(n int) {
		for i := 0; i < n; i++ {
			if ack := a.Submit(Op{Kind: OpAddVIP, VIP: v}, float64(i)); ack.Err != nil {
				t.Fatal(ack.Err)
			}
			if ack := a.Submit(Op{Kind: OpRemoveVIP, Addr: vip}, float64(i)); ack.Err != nil {
				t.Fatal(ack.Err)
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
