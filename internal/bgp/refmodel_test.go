package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"duet/internal/packet"
	"duet/internal/telemetry"
)

// refTable is a brute-force reference: a flat list of (prefix, nexthop,
// visibleAt, withdrawnAt) records with O(n) longest-prefix-match lookup.
// The property test drives Table and refTable with identical random op
// sequences and compares lookups at random times and addresses.
type refRoute struct {
	p           packet.Prefix
	nh          NodeID
	visibleAt   float64
	withdrawnAt float64
}

type refTable struct {
	routes []*refRoute
}

func (r *refTable) announce(p packet.Prefix, nh NodeID, at float64) {
	for _, rt := range r.routes {
		if rt.p == p && rt.nh == nh {
			if at < rt.visibleAt {
				rt.visibleAt = at
			}
			rt.withdrawnAt = 1e18
			return
		}
	}
	r.routes = append(r.routes, &refRoute{p: p, nh: nh, visibleAt: at, withdrawnAt: 1e18})
}

func (r *refTable) withdraw(p packet.Prefix, nh NodeID, at float64) {
	for _, rt := range r.routes {
		if rt.p == p && rt.nh == nh && at < rt.withdrawnAt {
			rt.withdrawnAt = at
		}
	}
}

func (r *refTable) withdrawAll(nh NodeID, at float64) {
	for _, rt := range r.routes {
		if rt.nh == nh && at < rt.withdrawnAt {
			rt.withdrawnAt = at
		}
	}
}

func (r *refTable) lookup(addr packet.Addr, now float64) ([]NodeID, bool) {
	bestBits := -1
	var nhs []NodeID
	for _, rt := range r.routes {
		if !(now >= rt.visibleAt && now < rt.withdrawnAt) || addr&packet.Mask(rt.p.Bits) != rt.p.Addr {
			continue
		}
		if rt.p.Bits > bestBits {
			bestBits = rt.p.Bits
			nhs = nhs[:0]
		}
		if rt.p.Bits == bestBits {
			nhs = append(nhs, rt.nh)
		}
	}
	if bestBits < 0 {
		return nil, false
	}
	sort.Slice(nhs, func(i, j int) bool { return nhs[i] < nhs[j] })
	return nhs, true
}

func TestTableMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	prefixes := []packet.Prefix{
		packet.MustParsePrefix("10.0.0.0/8"),
		packet.MustParsePrefix("10.1.0.0/16"),
		packet.MustParsePrefix("10.1.2.0/24"),
		packet.MustParsePrefix("10.1.2.3/32"),
		packet.MustParsePrefix("10.1.2.4/32"),
		packet.MustParsePrefix("10.128.0.0/9"),
		packet.MustParsePrefix("0.0.0.0/0"),
	}
	addrs := []packet.Addr{
		packet.MustParseAddr("10.1.2.3"),
		packet.MustParseAddr("10.1.2.4"),
		packet.MustParseAddr("10.1.2.99"),
		packet.MustParseAddr("10.1.99.99"),
		packet.MustParseAddr("10.200.0.1"),
		packet.MustParseAddr("192.168.1.1"),
	}

	for trial := 0; trial < 20; trial++ {
		tb := NewTable()
		ref := &refTable{}
		for step := 0; step < 120; step++ {
			at := rng.Float64() * 100
			nh := NodeID(rng.Intn(6))
			p := prefixes[rng.Intn(len(prefixes))]
			switch rng.Intn(4) {
			case 0, 1:
				tb.Announce(p, nh, at)
				ref.announce(p, nh, at)
			case 2:
				tb.Withdraw(p, nh, at)
				ref.withdraw(p, nh, at)
			case 3:
				tb.WithdrawAll(nh, at)
				ref.withdrawAll(nh, at)
			}
			// Compare lookups at a few random times/addresses.
			for k := 0; k < 4; k++ {
				now := rng.Float64() * 120
				addr := addrs[rng.Intn(len(addrs))]
				gotNHs, _, gotOK := tb.Lookup(addr, now)
				wantNHs, wantOK := ref.lookup(addr, now)
				if gotOK != wantOK {
					t.Fatalf("trial %d step %d: Lookup(%s, %.2f) ok=%v want %v",
						trial, step, addr, now, gotOK, wantOK)
				}
				if len(gotNHs) != len(wantNHs) {
					t.Fatalf("trial %d step %d: Lookup(%s, %.2f) = %v want %v",
						trial, step, addr, now, gotNHs, wantNHs)
				}
				for i := range gotNHs {
					if gotNHs[i] != wantNHs[i] {
						t.Fatalf("trial %d step %d: Lookup(%s, %.2f) = %v want %v",
							trial, step, addr, now, gotNHs, wantNHs)
					}
				}
			}
		}
	}
}

// longest returns the length of the longest prefix holding a route of the
// reference active at now that covers addr, or -1.
func (r *refTable) longest(addr packet.Addr, now float64) int {
	best := -1
	for _, rt := range r.routes {
		if now >= rt.visibleAt && now < rt.withdrawnAt && addr&packet.Mask(rt.p.Bits) == rt.p.Addr {
			best = max(best, rt.p.Bits)
		}
	}
	return best
}

// withdrawAllOrder lists, in (address, length) order, the prefixes whose route
// via nh withdrawAll(nh, at) withdraws.
func (r *refTable) withdrawAllOrder(nh NodeID, at float64) []packet.Prefix {
	var out []packet.Prefix
	for _, rt := range r.routes {
		if rt.nh == nh && at < rt.withdrawnAt {
			out = append(out, rt.p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Bits < out[j].Bits
	})
	return out
}

// checkTrie returns the first node under n, at depth depth, that breaks the
// trie's shape: a prefix with host bits set, a child its parent's prefix does
// not cover or that hangs on the wrong side, a node no prefix ends at with
// fewer than two children, or a path longer than 33 nodes.
func checkTrie(n *node, depth int) error {
	if n == nil {
		return nil
	}
	if depth > 33 {
		return fmt.Errorf("%s at depth %d", n.prefix, depth)
	}
	if n.prefix != packet.PrefixFrom(n.prefix.Addr, n.prefix.Bits) {
		return fmt.Errorf("%s has host bits set", n.prefix)
	}
	kids := 0
	for b, c := range n.children {
		if c == nil {
			continue
		}
		kids++
		if c.prefix.Bits <= n.prefix.Bits || !contains(n.prefix, c.prefix.Addr) || bit(c.prefix.Addr, n.prefix.Bits) != b {
			return fmt.Errorf("%s is child %d of %s", c.prefix, b, n.prefix)
		}
		if err := checkTrie(c, depth+1); err != nil {
			return err
		}
	}
	if n.routes == nil && kids < 2 {
		return fmt.Errorf("%s has no routes and %d children", n.prefix, kids)
	}
	return nil
}

// TestTrieShapeMatchesReferenceModel drives the path-compressed trie through
// the edits its one structural operation, insert, must get right — a prefix
// that splits an existing edge, one that lands on an existing branch, /31
// siblings, the aggregate lengths /0, /8, /9, /16 and /24, and ~1,000 /32s —
// then through random announces and withdrawals. After every step the trie
// keeps its shape and answers like refTable, and a WithdrawAll traces its
// withdrawals in (address, length) order, the order the table's pre-order walk
// has always emitted them in.
func TestTrieShapeMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	tb := NewTable()
	rec := telemetry.NewRecorder(1 << 14)
	tb.SetTelemetry(telemetry.NewRegistry(), rec)
	ref := &refTable{}
	var addrs []packet.Addr
	var pfxs []packet.Prefix

	check := func(what string) {
		t.Helper()
		if err := checkTrie(tb.Snapshot().root, 1); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		for k := 0; k < 8; k++ {
			addr := packet.Addr(rng.Uint32())
			if k < 6 {
				addr = addrs[rng.Intn(len(addrs))]
			}
			now := rng.Float64() * 120
			gotNHs, m, gotOK := tb.Lookup(addr, now)
			wantNHs, wantOK := ref.lookup(addr, now)
			if gotOK != wantOK || !slices.Equal(gotNHs, wantNHs) || gotOK && m != packet.PrefixFrom(addr, ref.longest(addr, now)) {
				t.Fatalf("after %s: Lookup(%s, %.2f) = %v %s %v, want %v /%d %v",
					what, addr, now, gotNHs, m, gotOK, wantNHs, ref.longest(addr, now), wantOK)
			}
		}
	}
	announce := func(p packet.Prefix, nh NodeID, at float64) {
		t.Helper()
		tb.Announce(p, nh, at)
		ref.announce(p, nh, at)
		addrs = append(addrs, p.Addr, p.Addr|^packet.Mask(p.Bits))
		pfxs = append(pfxs, p)
		check(fmt.Sprintf("Announce(%s, %d, %.2f)", p, nh, at))
	}

	a, b := packet.MustParseAddr("10.1.2.3"), packet.MustParseAddr("10.1.2.12")
	announce(packet.HostPrefix(a), 1, 0)
	announce(packet.HostPrefix(b), 2, 0)
	branch := packet.MustParsePrefix("10.1.2.0/28") // where a and b part
	if n := find(tb.Snapshot().root, branch); n == nil || n.routes != nil {
		t.Fatalf("two /32s under %s: node %+v, want a branch without routes", branch, n)
	}
	announce(packet.MustParsePrefix("10.1.2.0/30"), 3, 0) // splits the edge branch → a
	announce(packet.MustParsePrefix("10.1.0.0/16"), 4, 0) // splits the edge root → branch
	announce(branch, 5, 0)                                // the branch gains routes
	if n := find(tb.Snapshot().root, branch); n == nil || len(n.routes) != 1 {
		t.Fatalf("announced %s: node %+v, want the branch holding one route", branch, n)
	}
	for _, s := range []string{"0.0.0.0/0", "10.0.0.0/8", "10.128.0.0/9", "10.7.0.0/16", "10.7.7.0/24", "10.7.7.6/31"} {
		announce(packet.MustParsePrefix(s), NodeID(rng.Intn(6)), rng.Float64()*10)
	}
	for i := 0; i < 1000; i++ {
		addr := packet.Addr(10<<24 | rng.Uint32()&0xffffff)
		if i%8 == 0 {
			addr = packet.Addr(rng.Uint32())
		}
		announce(packet.HostPrefix(addr), NodeID(rng.Intn(6)), rng.Float64()*10)
		if i%10 == 0 { // its /31 sibling
			announce(packet.HostPrefix(addr^1), NodeID(rng.Intn(6)), rng.Float64()*10)
		}
	}

	for step := 0; step < 2000; step++ {
		p, nh, at := pfxs[rng.Intn(len(pfxs))], NodeID(rng.Intn(6)), rng.Float64()*100
		switch rng.Intn(8) {
		case 0, 1, 2:
			announce(p, nh, at)
		case 3, 4, 5, 6:
			tb.Withdraw(p, nh, at)
			ref.withdraw(p, nh, at)
			check(fmt.Sprintf("Withdraw(%s, %d, %.2f)", p, nh, at))
		case 7:
			want := ref.withdrawAllOrder(nh, at)
			from := rec.Recorded()
			tb.WithdrawAll(nh, at)
			ref.withdrawAll(nh, at)
			var got []packet.Prefix
			for _, e := range rec.Snapshot() {
				if e.Seq >= from && e.Kind == telemetry.KindBGPWithdraw {
					got = append(got, packet.Prefix{Addr: packet.Addr(e.A), Bits: int(e.Aux)})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("WithdrawAll(%d, %.2f) traced %v, want %v", nh, at, got, want)
			}
			check(fmt.Sprintf("WithdrawAll(%d, %.2f)", nh, at))
		}
	}
}
