package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"duet/internal/packet"
	"duet/internal/telemetry"
)

var (
	vip     = packet.MustParseAddr("10.0.0.1")
	vipHost = packet.HostPrefix(packet.MustParseAddr("10.0.0.1"))
	vipAgg  = packet.MustParsePrefix("10.0.0.0/16")
)

// Lookup lists the next hops Pick chooses among for addr, in the order Pick
// numbers them, by asking for one residue after another until the first hop
// comes round again. The table itself only ever picks one.
func (s Snapshot) Lookup(addr packet.Addr) (nhs []NodeID, matched packet.Prefix, ok bool) {
	for h := uint64(0); ; h++ {
		nh, m, found := s.Pick(addr, 0, h)
		if !found {
			return nil, packet.Prefix{}, false
		}
		if h > 0 && nh == nhs[0] {
			return nhs, matched, true
		}
		nhs, matched = append(nhs, nh), m
	}
}

func (t *Table) Lookup(addr packet.Addr) ([]NodeID, packet.Prefix, bool) {
	return t.Snapshot().Lookup(addr)
}

// withdraw withdraws p via nh, traced at at: a batch of one withdrawal.
func withdraw(tb *Table, p packet.Prefix, nh NodeID, at float64) {
	tb.Apply([]Op{{Prefix: p, NH: nh, At: at, Withdraw: true}})
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

	nhs, matched, ok := tb.Lookup(vip)
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

	// The HMux dies; once its withdrawal has converged (the caller applies
	// it then), traffic ECMPs over both SMuxes.
	tb.WithdrawAll(hmux1, 1.035)
	nhs, matched, ok := tb.Lookup(vip)
	if !ok || len(nhs) != 2 || nhs[0] != smux1 || nhs[1] != smux2 {
		t.Fatalf("post-withdrawal nexthops = %v", nhs)
	}
	if matched.Bits != 16 {
		t.Fatalf("matched %v, want aggregate", matched)
	}
}

func TestReAnnounceCancelsWithdrawal(t *testing.T) {
	tb := NewTable()
	tb.Announce(vipHost, hmux1, 0)
	withdraw(tb, vipHost, hmux1, 1.0)
	if _, _, ok := tb.Lookup(vip); ok {
		t.Fatal("withdrawn route still present")
	}
	// VIP migrates back: re-announce.
	tb.Announce(vipHost, hmux1, 3.0)
	if _, _, ok := tb.Lookup(vip); !ok {
		t.Fatal("re-announced route not present")
	}
}

func TestWithdrawUnknownNoop(t *testing.T) {
	tb := NewTable()
	withdraw(tb, vipHost, hmux1, 1.0) // must not panic
	tb.Announce(vipHost, hmux1, 0)
	withdraw(tb, vipHost, hmux2, 1.0) // different nexthop: no effect
	if _, _, ok := tb.Lookup(vip); !ok {
		t.Fatal("unrelated withdraw removed route")
	}
}

func TestMultipleHMuxReplicas(t *testing.T) {
	// §9 discusses replicating VIP entries across switches; ECMP then splits
	// across the replicas.
	tb := NewTable()
	tb.Announce(vipHost, hmux1, 0)
	tb.Announce(vipHost, hmux2, 0)
	nhs, _, ok := tb.Lookup(vip)
	if !ok || len(nhs) != 2 {
		t.Fatalf("nexthops = %v", nhs)
	}
}

func TestLookupNoMatch(t *testing.T) {
	tb := NewTable()
	tb.Announce(vipAgg, smux1, 0)
	if _, _, ok := tb.Lookup(packet.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("match outside prefix")
	}
}

func TestDefaultRoute(t *testing.T) {
	tb := NewTable()
	tb.Announce(packet.MustParsePrefix("0.0.0.0/0"), smux1, 0)
	nhs, matched, ok := tb.Lookup(packet.MustParseAddr("200.1.2.3"))
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
	nhs, _, _ := tb.Lookup(vip)
	if len(nhs) != 1 || nhs[0] != hmux1 {
		t.Fatalf("/32 not preferred: %v", nhs)
	}
	// /24 wins for a sibling host.
	nhs, m, _ := tb.Lookup(packet.MustParseAddr("10.0.0.99"))
	if len(nhs) != 1 || nhs[0] != smux2 || m.Bits != 24 {
		t.Fatalf("/24 not preferred: %v %v", nhs, m)
	}
	// /8 wins outside the /24.
	nhs, m, _ = tb.Lookup(packet.MustParseAddr("10.9.9.9"))
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
	if _, _, ok := tb.Lookup(vip); !ok {
		t.Fatal("aggregate should still cover VIP")
	}
	nhs, _, _ := tb.Lookup(vip)
	if len(nhs) != 1 || nhs[0] != smux1 {
		t.Fatalf("nexthops after WithdrawAll = %v", nhs)
	}
	nhs, _, _ = tb.Lookup(packet.MustParseAddr("10.0.0.3"))
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
	vips := scattered(n)
	for i, v := range vips {
		tb.Announce(packet.HostPrefix(v), NodeID(i%64), 0)
	}
	return vips
}

// scattered returns n distinct addresses spread over the whole of 10.0.0.0/8,
// as a VIP allocator leaves them: an odd multiplier is a bijection on the 24
// host bits.
func scattered(n int) []packet.Addr {
	addrs := make([]packet.Addr, n)
	for i := range addrs {
		addrs[i] = packet.Addr(10<<24 | uint32(i)*2654435761&0xffffff)
	}
	return addrs
}

// BenchmarkPick prices Pick, the fabric's per-packet route decision, over
// the paper's route mix: one SMux aggregate over eight SMuxes and a /32 per
// HMux-served VIP, for a VIP with a /32 and for an address the aggregate
// alone covers.
func BenchmarkPick(b *testing.B) {
	for _, n := range []int{64, 30000} {
		b.Run(fmt.Sprintf("hosts=%d", n), func(b *testing.B) {
			tb := NewTable()
			vips := hostRoutes(tb, n)
			benchPick(b, tb.Snapshot(), vips, 32)
		})
	}
	b.Run("aggregate", func(b *testing.B) {
		tb := NewTable()
		hostRoutes(tb, 0)
		benchPick(b, tb.Snapshot(), scattered(64), 8)
	})
}

func benchPick(b *testing.B, snap Snapshot, addrs []packet.Addr, bits int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, m, ok := snap.Pick(addrs[i%len(addrs)], 0, uint64(i)); !ok || m.Bits != bits {
			b.Fatal("lookup failed")
		}
	}
}

// TestPickZeroAlloc: the dataplane's route decision allocates nothing — on a
// /32 hit, on a /32 whose route was withdrawn (the trie walk behind the host
// probe's miss), and where the aggregate alone covers the address.
func TestPickZeroAlloc(t *testing.T) {
	hosts := NewTable()
	vips := hostRoutes(hosts, 1000)
	fallback := NewTable()
	hostRoutes(fallback, 1000)
	for i, v := range vips {
		withdraw(fallback, packet.HostPrefix(v), NodeID(i%64), 0.5)
	}
	aggregate := NewTable()
	hostRoutes(aggregate, 0)
	for _, tc := range []struct {
		name string
		tb   *Table
		bits int
	}{
		{"host", hosts, 32},
		{"withdrawn host", fallback, 8},
		{"aggregate only", aggregate, 8},
	} {
		snap, i := tc.tb.Snapshot(), 0
		allocs := testing.AllocsPerRun(1000, func() {
			if _, m, ok := snap.Pick(vips[i%len(vips)], 0, uint64(i)); !ok || m.Bits != tc.bits {
				t.Fatalf("%s: Pick(%s) = %s %v, want a /%d", tc.name, vips[i%len(vips)], m, ok, tc.bits)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Pick: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestWithdrawnHostsLeaveTheTable: a withdrawal deletes the /32 it empties,
// so 10,000 announce/withdraw cycles over 2,000 distinct /32s — VIPs moving
// between switches, as placement epochs move them — leave the host map
// holding exactly the live /32s, however many were ever announced.
func TestWithdrawnHostsLeaveTheTable(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	tb := NewTable()
	hostRoutes(tb, 0)
	vips := scattered(2000)
	live := map[packet.Addr]NodeID{}
	for cycle := 0; cycle < 10000; cycle++ {
		v := vips[rng.Intn(len(vips))]
		var ops []Op
		if nh, ok := live[v]; ok {
			ops = append(ops, Op{Prefix: packet.HostPrefix(v), NH: nh, Withdraw: true})
			delete(live, v)
		}
		if rng.Intn(2) == 0 { // a move to another switch, not just a withdrawal
			nh := NodeID(rng.Intn(64))
			ops = append(ops, Op{Prefix: packet.HostPrefix(v), NH: nh})
			live[v] = nh
		}
		tb.Apply(ops)
	}
	if got := tb.Snapshot().v.hosts.Len(); got != len(live) {
		t.Fatalf("host map holds %d /32s, want the %d live ones", got, len(live))
	}
	for _, v := range vips {
		nhs, m, ok := tb.Lookup(v)
		if nh, isLive := live[v]; isLive && (!ok || m.Bits != 32 || !slices.Equal(nhs, []NodeID{nh})) {
			t.Fatalf("Lookup(%s) = %v %s %v, want [%d] via its /32", v, nhs, m, ok, nh)
		} else if !isLive && (!ok || m.Bits != 8) {
			t.Fatalf("Lookup(%s) = %v %s %v, want the aggregate", v, nhs, m, ok)
		}
	}
}

// TestNoOpMutationPublishesNothing: an announcement of a present route and a
// withdrawal of an absent one leave the published view as it was, for a /32
// and for the aggregate alike; a redundant announcement is still counted and
// traced, an absent withdrawal is not; a batch publishes one view however
// many routes it changes.
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
		{"refresh", func() { tb.Announce(vipHost, hmux1, 2) }, false, 1, 0},
		{"withdraw", func() { withdraw(tb, vipHost, hmux1, 5) }, true, 0, 1},
		{"withdraw again", func() { withdraw(tb, vipHost, hmux1, 6) }, false, 0, 0},
		{"withdraw another next hop", func() { withdraw(tb, vipHost, hmux2, 1) }, false, 0, 0},
		{"withdraw an unknown prefix", func() { withdraw(tb, packet.MustParsePrefix("10.0.0.0/24"), smux1, 1) }, false, 0, 0},
		{"withdraw an unknown host", func() { withdraw(tb, packet.HostPrefix(vip+1), hmux1, 1) }, false, 0, 0},
		{"withdraw all of a next hop already gone", func() { tb.WithdrawAll(hmux1, 7) }, false, 0, 0},
		{"re-announce", func() { tb.Announce(vipHost, hmux1, 8) }, true, 1, 0},
		{"refresh the aggregate", func() { tb.Announce(vipAgg, smux1, 3) }, false, 1, 0},
		{"withdraw the aggregate", func() { withdraw(tb, vipAgg, smux1, 5) }, true, 0, 1},
		{"withdraw the aggregate again", func() { withdraw(tb, vipAgg, smux1, 6) }, false, 0, 0},
		{"withdraw another next hop of the aggregate", func() { withdraw(tb, vipAgg, smux2, 1) }, false, 0, 0},
		{"re-announce the aggregate", func() { tb.Announce(vipAgg, smux1, 8) }, true, 1, 0},
		{"an empty batch", func() { tb.Apply(nil) }, false, 0, 0},
		{"a batch of refreshes", func() {
			tb.Apply([]Op{{Prefix: vipHost, NH: hmux1, At: 9}, {Prefix: vipAgg, NH: smux1, At: 9}})
		}, false, 2, 0},
		{"a batch moving the host and the aggregate", func() {
			tb.Apply([]Op{
				{Prefix: vipHost, NH: hmux1, At: 9, Withdraw: true},
				{Prefix: vipHost, NH: hmux2, At: 9},
				{Prefix: vipAgg, NH: smux2, At: 9},
				{Prefix: vipAgg, NH: smux1, At: 9, Withdraw: true},
			})
		}, true, 2, 2},
		{"announce the host via the aggregate's next hop", func() { tb.Announce(vipHost, smux2, 10) }, true, 1, 0},
		{"WithdrawAll over a host and the aggregate", func() { tb.WithdrawAll(smux2, 11) }, true, 0, 2},
	} {
		before, ann, wd, evs := tb.Snapshot().v, reg.Counter("bgp.announces").Value(), reg.Counter("bgp.withdraws").Value(), rec.Recorded()
		tc.op()
		if published := tb.Snapshot().v != before; published != tc.publishes {
			t.Errorf("%s: published %v, want %v", tc.name, published, tc.publishes)
		}
		gotAnn, gotWd := reg.Counter("bgp.announces").Value()-ann, reg.Counter("bgp.withdraws").Value()-wd
		if gotAnn != tc.announces || gotWd != tc.wdrs || rec.Recorded()-evs != tc.announces+tc.wdrs {
			t.Errorf("%s: counted %d announces, %d withdrawals and %d events, want %d, %d and %d",
				tc.name, gotAnn, gotWd, rec.Recorded()-evs, tc.announces, tc.wdrs, tc.announces+tc.wdrs)
		}
	}
}
