package bgp

import (
	"fmt"
	"testing"

	"duet/internal/packet"
	"duet/internal/telemetry"
)

var (
	vip     = packet.MustParseAddr("10.0.0.1")
	vipHost = packet.HostPrefix(packet.MustParseAddr("10.0.0.1"))
	vipAgg  = packet.MustParsePrefix("10.0.0.0/16")
)

// Lookup lists the next hops Pick chooses among for addr at time now, in the
// order Pick numbers them, by asking for one residue after another until the
// first hop comes round again. The table itself only ever picks one.
func (s Snapshot) Lookup(addr packet.Addr, now float64) (nhs []NodeID, matched packet.Prefix, ok bool) {
	for h := uint64(0); ; h++ {
		nh, m, found := s.Pick(addr, now, h)
		if !found {
			return nil, packet.Prefix{}, false
		}
		if h > 0 && nh == nhs[0] {
			return nhs, matched, true
		}
		nhs, matched = append(nhs, nh), m
	}
}

func (t *Table) Lookup(addr packet.Addr, now float64) ([]NodeID, packet.Prefix, bool) {
	return t.Snapshot().Lookup(addr, now)
}

const (
	hmux1 NodeID = 1
	hmux2 NodeID = 2
	smux1 NodeID = 100
	smux2 NodeID = 101
)

func TestLPMPrefersHMuxSlash32(t *testing.T) {
	tb := NewTable()
	// SMuxes announce the aggregate; the HMux announces /32 (paper §3.3.1).
	tb.Announce(vipAgg, smux1, 0)
	tb.Announce(vipAgg, smux2, 0)
	tb.Announce(vipHost, hmux1, 0)

	nhs, matched, ok := tb.Lookup(vip, 1.0)
	if !ok {
		t.Fatal("no route")
	}
	if len(nhs) != 1 || nhs[0] != hmux1 {
		t.Fatalf("nexthops = %v, want HMux only", nhs)
	}
	if matched.Bits != 32 {
		t.Fatalf("matched %v, want /32", matched)
	}
}

func TestFallbackToAggregateAfterWithdraw(t *testing.T) {
	tb := NewTable()
	tb.Announce(vipAgg, smux1, 0)
	tb.Announce(vipAgg, smux2, 0)
	tb.Announce(vipHost, hmux1, 0)

	// HMux dies at t=1.0; withdrawal converges at 1.035.
	tb.WithdrawAll(hmux1, 1.0+DefaultConvergence)

	// Before convergence the fabric still routes to the dead HMux.
	nhs, _, ok := tb.Lookup(vip, 1.01)
	if !ok || len(nhs) != 1 || nhs[0] != hmux1 {
		t.Fatalf("pre-convergence nexthops = %v", nhs)
	}
	// After convergence, traffic ECMPs over both SMuxes.
	nhs, matched, ok := tb.Lookup(vip, 1.05)
	if !ok || len(nhs) != 2 || nhs[0] != smux1 || nhs[1] != smux2 {
		t.Fatalf("post-convergence nexthops = %v", nhs)
	}
	if matched.Bits != 16 {
		t.Fatalf("matched %v, want aggregate", matched)
	}
}

func TestAnnounceNotVisibleBeforeConvergence(t *testing.T) {
	tb := NewTable()
	tb.Announce(vipHost, hmux1, 0.5)
	if _, _, ok := tb.Lookup(vip, 0.4); ok {
		t.Fatal("route visible before convergence")
	}
	if _, _, ok := tb.Lookup(vip, 0.5); !ok {
		t.Fatal("route not visible at convergence time")
	}
}

func TestReAnnounceCancelsWithdrawal(t *testing.T) {
	tb := NewTable()
	tb.Announce(vipHost, hmux1, 0)
	tb.Withdraw(vipHost, hmux1, 1.0)
	if _, _, ok := tb.Lookup(vip, 2.0); ok {
		t.Fatal("withdrawn route still active")
	}
	// VIP migrates back: re-announce.
	tb.Announce(vipHost, hmux1, 3.0)
	if _, _, ok := tb.Lookup(vip, 3.5); !ok {
		t.Fatal("re-announced route not active")
	}
	// Earliest visibility is kept on duplicate announce.
	tb.Announce(vipHost, hmux1, 10.0)
	if _, _, ok := tb.Lookup(vip, 3.5); !ok {
		t.Fatal("duplicate announce delayed existing route")
	}
}

func TestWithdrawUnknownNoop(t *testing.T) {
	tb := NewTable()
	tb.Withdraw(vipHost, hmux1, 1.0) // must not panic
	tb.Announce(vipHost, hmux1, 0)
	tb.Withdraw(vipHost, hmux2, 1.0) // different nexthop: no effect
	if _, _, ok := tb.Lookup(vip, 2.0); !ok {
		t.Fatal("unrelated withdraw removed route")
	}
}

func TestEarliestWithdrawalWins(t *testing.T) {
	tb := NewTable()
	tb.Announce(vipHost, hmux1, 0)
	tb.Withdraw(vipHost, hmux1, 5.0)
	tb.Withdraw(vipHost, hmux1, 2.0)
	if _, _, ok := tb.Lookup(vip, 3.0); ok {
		t.Fatal("later withdrawal overrode earlier one")
	}
}

func TestMultipleHMuxReplicas(t *testing.T) {
	// §9 discusses replicating VIP entries across switches; ECMP then splits
	// across the replicas.
	tb := NewTable()
	tb.Announce(vipHost, hmux1, 0)
	tb.Announce(vipHost, hmux2, 0)
	nhs, _, ok := tb.Lookup(vip, 1)
	if !ok || len(nhs) != 2 {
		t.Fatalf("nexthops = %v", nhs)
	}
}

func TestLookupNoMatch(t *testing.T) {
	tb := NewTable()
	tb.Announce(vipAgg, smux1, 0)
	if _, _, ok := tb.Lookup(packet.MustParseAddr("11.0.0.1"), 1); ok {
		t.Fatal("match outside prefix")
	}
}

func TestDefaultRoute(t *testing.T) {
	tb := NewTable()
	tb.Announce(packet.MustParsePrefix("0.0.0.0/0"), smux1, 0)
	nhs, matched, ok := tb.Lookup(packet.MustParseAddr("200.1.2.3"), 1)
	if !ok || len(nhs) != 1 || matched.Bits != 0 {
		t.Fatalf("default route lookup failed: %v %v %v", nhs, matched, ok)
	}
}

func TestIntermediatePrefixLengths(t *testing.T) {
	tb := NewTable()
	tb.Announce(packet.MustParsePrefix("10.0.0.0/8"), smux1, 0)
	tb.Announce(packet.MustParsePrefix("10.0.0.0/24"), smux2, 0)
	tb.Announce(vipHost, hmux1, 0)

	// /32 wins for the VIP itself.
	nhs, _, _ := tb.Lookup(vip, 1)
	if len(nhs) != 1 || nhs[0] != hmux1 {
		t.Fatalf("/32 not preferred: %v", nhs)
	}
	// /24 wins for a sibling host.
	nhs, m, _ := tb.Lookup(packet.MustParseAddr("10.0.0.99"), 1)
	if len(nhs) != 1 || nhs[0] != smux2 || m.Bits != 24 {
		t.Fatalf("/24 not preferred: %v %v", nhs, m)
	}
	// /8 wins outside the /24.
	nhs, m, _ = tb.Lookup(packet.MustParseAddr("10.9.9.9"), 1)
	if len(nhs) != 1 || nhs[0] != smux1 || m.Bits != 8 {
		t.Fatalf("/8 not matched: %v %v", nhs, m)
	}
}

func TestWithdrawAllOnlyTouchesTarget(t *testing.T) {
	tb := NewTable()
	tb.Announce(vipHost, hmux1, 0)
	tb.Announce(packet.HostPrefix(packet.MustParseAddr("10.0.0.2")), hmux1, 0)
	tb.Announce(packet.HostPrefix(packet.MustParseAddr("10.0.0.3")), hmux2, 0)
	tb.Announce(vipAgg, smux1, 0)

	tb.WithdrawAll(hmux1, 1.0)
	if _, _, ok := tb.Lookup(vip, 2.0); !ok {
		t.Fatal("aggregate should still cover VIP")
	}
	nhs, _, _ := tb.Lookup(vip, 2.0)
	if len(nhs) != 1 || nhs[0] != smux1 {
		t.Fatalf("nexthops after WithdrawAll = %v", nhs)
	}
	nhs, _, _ = tb.Lookup(packet.MustParseAddr("10.0.0.3"), 2.0)
	if len(nhs) != 1 || nhs[0] != hmux2 {
		t.Fatalf("unrelated HMux route disturbed: %v", nhs)
	}
}

// hostRoutes announces the SMux aggregate 10.0.0.0/8 over eight SMuxes and n
// /32 VIP routes scattered under it, and returns the VIPs.
func hostRoutes(tb *Table, n int) []packet.Addr {
	for i := 0; i < 8; i++ {
		tb.Announce(packet.MustParsePrefix("10.0.0.0/8"), smux1+NodeID(i), 0)
	}
	vips := make([]packet.Addr, n)
	for i := range vips {
		// An odd multiplier is a bijection on the 24 host bits: n distinct
		// VIPs spread over the whole /8, as a VIP allocator leaves them.
		vips[i] = packet.Addr(10<<24 | uint32(i)*2654435761&0xffffff)
		tb.Announce(packet.HostPrefix(vips[i]), NodeID(i%64), 0)
	}
	return vips
}

// BenchmarkLookup prices Pick, the fabric's per-packet route decision, over
// the paper's route mix: one SMux aggregate and a /32 per HMux-served VIP.
func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{64, 30000} {
		b.Run(fmt.Sprintf("routes=%d", n), func(b *testing.B) {
			tb := NewTable()
			vips := hostRoutes(tb, n)
			snap := tb.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, m, ok := snap.Pick(vips[i%n], 1.0, uint64(i)); !ok || m.Bits != 32 {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}

// TestPickZeroAlloc: the dataplane's route decision allocates nothing.
func TestPickZeroAlloc(t *testing.T) {
	tb := NewTable()
	vips := hostRoutes(tb, 1000)
	snap := tb.Snapshot()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := snap.Pick(vips[i%len(vips)], 1.0, uint64(i)); !ok {
			t.Fatal("lookup failed")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Pick: %v allocs/op, want 0", allocs)
	}
}

// TestNoOpMutationPublishesNothing: a Withdraw that withdraws nothing sooner
// and an Announce refresh that changes neither time leave the published root
// as it was, and are still counted and traced like every call before them.
func TestNoOpMutationPublishesNothing(t *testing.T) {
	tb := NewTable()
	reg, rec := telemetry.NewRegistry(), telemetry.NewRecorder(64)
	tb.SetTelemetry(reg, rec)
	tb.Announce(vipAgg, smux1, 0)
	tb.Announce(vipHost, hmux1, 1)
	for _, tc := range []struct {
		name            string
		op              func()
		publishes       bool
		announces, wdrs uint64
	}{
		{"refresh at the same time", func() { tb.Announce(vipHost, hmux1, 1) }, false, 1, 0},
		{"refresh at a later time", func() { tb.Announce(vipHost, hmux1, 2) }, false, 1, 0},
		{"refresh at an earlier time", func() { tb.Announce(vipHost, hmux1, 0.5) }, true, 1, 0},
		{"withdraw", func() { tb.Withdraw(vipHost, hmux1, 5) }, true, 0, 1},
		{"withdraw again at the same time", func() { tb.Withdraw(vipHost, hmux1, 5) }, false, 0, 1},
		{"withdraw again later", func() { tb.Withdraw(vipHost, hmux1, 6) }, false, 0, 1},
		{"withdraw again sooner", func() { tb.Withdraw(vipHost, hmux1, 4) }, true, 0, 1},
		{"withdraw another next hop", func() { tb.Withdraw(vipHost, hmux2, 1) }, false, 0, 0},
		{"withdraw an unknown prefix", func() { tb.Withdraw(packet.MustParsePrefix("10.0.0.0/24"), smux1, 1) }, false, 0, 0},
		{"withdraw all of a next hop already gone", func() { tb.WithdrawAll(hmux1, 7) }, false, 0, 0},
		{"re-announce", func() { tb.Announce(vipHost, hmux1, 8) }, true, 1, 0},
	} {
		before, ann, wd, evs := tb.Snapshot().root, reg.Counter("bgp.announces").Value(), reg.Counter("bgp.withdraws").Value(), rec.Recorded()
		tc.op()
		if published := tb.Snapshot().root != before; published != tc.publishes {
			t.Errorf("%s: published %v, want %v", tc.name, published, tc.publishes)
		}
		gotAnn, gotWd := reg.Counter("bgp.announces").Value()-ann, reg.Counter("bgp.withdraws").Value()-wd
		if gotAnn != tc.announces || gotWd != tc.wdrs || rec.Recorded()-evs != tc.announces+tc.wdrs {
			t.Errorf("%s: counted %d announces, %d withdrawals and %d events, want %d, %d and %d",
				tc.name, gotAnn, gotWd, rec.Recorded()-evs, tc.announces, tc.wdrs, tc.announces+tc.wdrs)
		}
	}
}
