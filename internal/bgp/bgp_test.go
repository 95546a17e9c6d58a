package bgp

import (
	"testing"

	"duet/internal/packet"
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

func BenchmarkLookup(b *testing.B) {
	tb := NewTable()
	tb.Announce(vipAgg, smux1, 0)
	for i := 0; i < 4096; i++ {
		addr := packet.AddrFrom4(10, 0, byte(i>>8), byte(i))
		tb.Announce(packet.HostPrefix(addr), NodeID(i%64), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tb.Lookup(vip, 1.0); !ok {
			b.Fatal("lookup failed")
		}
	}
}
