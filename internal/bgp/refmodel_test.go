package bgp

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"duet/internal/addrmap"
	"duet/internal/packet"
	"duet/internal/telemetry"
)

// refTable is a brute-force reference of the converged fabric: each prefix's
// set of next hops, with O(n) longest-prefix-match lookup. The property tests
// drive Table and refTable with identical op sequences and compare lookups.
type refTable struct {
	routes map[packet.Prefix]map[NodeID]bool // no empty set is kept
}

func newRefTable() *refTable {
	return &refTable{routes: map[packet.Prefix]map[NodeID]bool{}}
}

// announce, withdraw and withdrawAll report whether they changed a route.
func (r *refTable) announce(p packet.Prefix, nh NodeID) bool {
	if r.routes[p][nh] {
		return false
	}
	if r.routes[p] == nil {
		r.routes[p] = map[NodeID]bool{}
	}
	r.routes[p][nh] = true
	return true
}

func (r *refTable) withdraw(p packet.Prefix, nh NodeID) bool {
	if !r.routes[p][nh] {
		return false
	}
	if delete(r.routes[p], nh); len(r.routes[p]) == 0 {
		delete(r.routes, p)
	}
	return true
}

func (r *refTable) withdrawAll(nh NodeID) bool {
	changed := false
	for _, p := range r.withdrawAllOrder(nh) {
		changed = r.withdraw(p, nh) || changed
	}
	return changed
}

// apply applies a batch in order.
func (r *refTable) apply(ops []Op) bool {
	changed := false
	for _, op := range ops {
		if op.Withdraw {
			changed = r.withdraw(op.Prefix, op.NH) || changed
		} else {
			changed = r.announce(op.Prefix, op.NH) || changed
		}
	}
	return changed
}

// longest returns the length of the longest prefix holding a route that
// covers addr, or -1.
func (r *refTable) longest(addr packet.Addr) int {
	best := -1
	for p := range r.routes {
		if addr&packet.Mask(p.Bits) == p.Addr {
			best = max(best, p.Bits)
		}
	}
	return best
}

// lookup returns the next hops of the longest prefix covering addr, sorted.
func (r *refTable) lookup(addr packet.Addr) ([]NodeID, bool) {
	bits := r.longest(addr)
	if bits < 0 {
		return nil, false
	}
	return r.nextHops(packet.PrefixFrom(addr, bits)), true
}

// nextHops returns p's next hops, sorted.
func (r *refTable) nextHops(p packet.Prefix) []NodeID {
	var nhs []NodeID
	for nh := range r.routes[p] {
		nhs = append(nhs, nh)
	}
	slices.Sort(nhs)
	return nhs
}

// withdrawAllOrder lists, in (address, length) order, the prefixes with a
// route via nh: the withdrawals withdrawAll(nh) makes.
func (r *refTable) withdrawAllOrder(nh NodeID) []packet.Prefix {
	var out []packet.Prefix
	for p, nhs := range r.routes {
		if nhs[nh] {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b packet.Prefix) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Bits, b.Bits))
	})
	return out
}

// checkLookup returns an error if the table and the reference resolve addr
// differently: another set of next hops, another order, or another prefix.
func checkLookup(tb *Table, ref *refTable, addr packet.Addr) error {
	gotNHs, m, gotOK := tb.Lookup(addr)
	wantNHs, wantOK := ref.lookup(addr)
	if gotOK != wantOK || !slices.Equal(gotNHs, wantNHs) || gotOK && m != packet.PrefixFrom(addr, ref.longest(addr)) {
		return fmt.Errorf("Lookup(%s) = %v %s %v, want %v /%d %v", addr, gotNHs, m, gotOK, wantNHs, ref.longest(addr), wantOK)
	}
	return nil
}

// checkStep returns an error if a step published a view (the table's view
// pointer moved) when it changed no route of the reference, or none when it
// did.
func checkStep(before, after *view, changed bool) error {
	if published := after != before; published != changed {
		return fmt.Errorf("published %v, want %v", published, changed)
	}
	return nil
}

// TestTableMatchesReferenceModel drives Table and refTable with the same
// random announcements, withdrawals, WithdrawAlls and multi-op Apply batches.
// After every step the two answer alike, the host map holds exactly the
// reference's live /32s, and the table has published a view if and only if
// the step changed a route (Apply stores at most one).
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

	randOp := func() Op {
		return Op{Prefix: prefixes[rng.Intn(len(prefixes))], NH: NodeID(rng.Intn(6)), Withdraw: rng.Intn(3) == 0}
	}
	for trial := 0; trial < 20; trial++ {
		tb := NewTable()
		ref := newRefTable()
		for step := 0; step < 120; step++ {
			nh := NodeID(rng.Intn(6))
			p := prefixes[rng.Intn(len(prefixes))]
			var changed bool
			before := tb.Snapshot().v
			switch rng.Intn(5) {
			case 0, 1:
				tb.Announce(p, nh, 0)
				changed = ref.announce(p, nh)
			case 2:
				withdraw(tb, p, nh, 0)
				changed = ref.withdraw(p, nh)
			case 3:
				tb.WithdrawAll(nh, 0)
				changed = ref.withdrawAll(nh)
			case 4:
				ops := make([]Op, 2+rng.Intn(6))
				for i := range ops {
					ops[i] = randOp()
				}
				tb.Apply(ops)
				changed = ref.apply(ops)
			}
			if err := checkStep(before, tb.Snapshot().v, changed); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if err := checkHosts(tb.Snapshot().v.hosts, ref); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for _, addr := range addrs {
				if err := checkLookup(tb, ref, addr); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			}
		}
	}
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
	if n.prefix.Bits == 32 {
		return fmt.Errorf("%s is in the trie, not the host map", n.prefix)
	}
	return nil
}

// checkHosts returns an error unless the host map holds exactly the
// reference's live /32s, each with the reference's next hops in NodeID order:
// a /32 whose last route was withdrawn is gone.
func checkHosts(hosts addrmap.Map[[]NodeID], ref *refTable) error {
	n := 0
	for p := range ref.routes {
		if p.Bits != 32 {
			continue
		}
		n++
		if rs, _ := hosts.Get(p.Addr); !slices.Equal(rs, ref.nextHops(p)) {
			return fmt.Errorf("host %s: host map holds %v, want %v", p, rs, ref.nextHops(p))
		}
	}
	if hosts.Len() != n {
		return fmt.Errorf("host map holds %d /32s, want the reference's %d", hosts.Len(), n)
	}
	return nil
}

// TestTrieShapeMatchesReferenceModel drives the path-compressed trie through
// the edits its one structural operation, insert, must get right — a prefix
// that splits an existing edge, one that lands on an existing branch, the
// aggregate lengths /0, /8, /9, /16 and /24, a /31, and ~100 random lengths
// between /17 and /31 — and the host map through ~1,000 /32s and /32
// siblings, then both through random announces and withdrawals. After every
// step the trie keeps its shape and holds no /32, the host map holds exactly
// refTable's live /32s, the table answers like refTable, and a WithdrawAll
// traces its withdrawals — trie and host map merged — in (address, length)
// order, the order the trie's pre-order walk always emitted them in.
func TestTrieShapeMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	tb := NewTable()
	rec := telemetry.NewRecorder(1 << 14)
	tb.SetTelemetry(telemetry.NewRegistry(), rec)
	ref := newRefTable()
	var addrs []packet.Addr
	var pfxs []packet.Prefix

	check := func(what string) {
		t.Helper()
		if err := checkTrie(tb.Snapshot().v.root, 1); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		if err := checkHosts(tb.Snapshot().v.hosts, ref); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		for k := 0; k < 8; k++ {
			addr := packet.Addr(rng.Uint32())
			if k < 6 {
				addr = addrs[rng.Intn(len(addrs))]
			}
			if err := checkLookup(tb, ref, addr); err != nil {
				t.Fatalf("after %s: %v", what, err)
			}
		}
	}
	announce := func(p packet.Prefix, nh NodeID) {
		t.Helper()
		tb.Announce(p, nh, 0)
		ref.announce(p, nh)
		addrs = append(addrs, p.Addr, p.Addr|^packet.Mask(p.Bits))
		pfxs = append(pfxs, p)
		check(fmt.Sprintf("Announce(%s, %d)", p, nh))
	}

	a, b := packet.MustParsePrefix("10.1.2.0/30"), packet.MustParsePrefix("10.1.2.12/30")
	announce(a, 1)
	announce(b, 2)
	branch := packet.MustParsePrefix("10.1.2.0/28") // where a and b part
	if n := find(tb.Snapshot().v.root, branch); n == nil || n.routes != nil {
		t.Fatalf("two /30s under %s: node %+v, want a branch without routes", branch, n)
	}
	announce(packet.MustParsePrefix("10.1.2.0/29"), 3) // splits the edge branch → a
	announce(packet.MustParsePrefix("10.1.0.0/16"), 4) // splits the edge root → branch
	announce(branch, 5)                                // the branch gains routes
	if n := find(tb.Snapshot().v.root, branch); n == nil || len(n.routes) != 1 {
		t.Fatalf("announced %s: node %+v, want the branch holding one route", branch, n)
	}
	withdraw(tb, branch, 5, 0) // and loses them: its node stays, with an empty list
	ref.withdraw(branch, 5)
	if n := find(tb.Snapshot().v.root, branch); n == nil || n.routes == nil || len(n.routes) != 0 {
		t.Fatalf("withdrew %s: node %+v, want the node kept with an empty route list", branch, n)
	}
	check(fmt.Sprintf("Withdraw(%s, 5)", branch))
	announce(packet.HostPrefix(packet.MustParseAddr("10.1.2.3")), 1) // a /32 under a: the host map's, the trie's untouched
	for _, s := range []string{"0.0.0.0/0", "10.0.0.0/8", "10.128.0.0/9", "10.7.0.0/16", "10.7.7.0/24", "10.7.7.6/31"} {
		announce(packet.MustParsePrefix(s), NodeID(rng.Intn(6)))
	}
	for i := 0; i < 1000; i++ {
		addr := packet.Addr(10<<24 | rng.Uint32()&0xffffff)
		if i%8 == 0 {
			addr = packet.Addr(rng.Uint32())
		}
		announce(packet.HostPrefix(addr), NodeID(rng.Intn(6)))
		if i%10 == 0 { // its /31 sibling
			announce(packet.HostPrefix(addr^1), NodeID(rng.Intn(6)))
		}
		if i%10 == 5 { // a prefix of it, splitting some edge of the trie
			announce(packet.PrefixFrom(addr, 17+rng.Intn(15)), NodeID(rng.Intn(6)))
		}
	}

	for step := 0; step < 2000; step++ {
		p, nh := pfxs[rng.Intn(len(pfxs))], NodeID(rng.Intn(6))
		switch rng.Intn(8) {
		case 0, 1, 2:
			announce(p, nh)
		case 3, 4, 5, 6:
			withdraw(tb, p, nh, 0)
			ref.withdraw(p, nh)
			check(fmt.Sprintf("Withdraw(%s, %d)", p, nh))
		case 7:
			want := ref.withdrawAllOrder(nh)
			from := rec.Recorded()
			tb.WithdrawAll(nh, 0)
			ref.withdrawAll(nh)
			var got []packet.Prefix
			for _, e := range rec.Snapshot() {
				if e.Seq >= from && e.Kind == telemetry.KindBGPWithdraw {
					got = append(got, packet.Prefix{Addr: packet.Addr(e.A), Bits: int(e.Aux)})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("WithdrawAll(%d) traced %v, want %v", nh, got, want)
			}
			check(fmt.Sprintf("WithdrawAll(%d)", nh))
		}
	}
}

// FuzzTableMatchesReference decodes a byte string into Apply batches and
// WithdrawAlls and checks the table against refTable after each: a view
// published if and only if a route changed, the host map holding exactly the
// live /32s, and Pick answering like the reference at a fixed address set.
// Each byte is one op: bits 0–2 pick a prefix, 3–4 a next hop, bit 5 ends
// the batch after the op, and bits 6–7 say what it is (0, 1 announce; 2
// withdraw; 3 WithdrawAll of the next hop, which first applies the batch so
// far).
func FuzzTableMatchesReference(f *testing.F) {
	prefixes := [8]packet.Prefix{
		packet.MustParsePrefix("0.0.0.0/0"),
		packet.MustParsePrefix("10.0.0.0/8"),
		packet.MustParsePrefix("10.1.0.0/16"),
		packet.MustParsePrefix("10.1.2.0/24"),
		packet.MustParsePrefix("10.1.2.2/31"),
		packet.MustParsePrefix("10.1.2.3/32"),
		packet.MustParsePrefix("10.1.2.2/32"),
		packet.MustParsePrefix("10.200.0.1/32"),
	}
	addrs := []packet.Addr{
		packet.MustParseAddr("10.1.2.2"),
		packet.MustParseAddr("10.1.2.3"),
		packet.MustParseAddr("10.1.2.99"),
		packet.MustParseAddr("10.1.99.99"),
		packet.MustParseAddr("10.200.0.1"),
		packet.MustParseAddr("192.168.1.1"),
	}
	f.Add([]byte{0x05, 0x0d, 0x21, 0x85, 0x25, 0xc8, 0x86, 0x4e})
	f.Add([]byte{0x01, 0x09, 0x11, 0x19, 0x25, 0x2d, 0x35, 0xfd, 0xc8, 0xa1, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, ref := NewTable(), newRefTable()
		var batch []Op
		step := func(what string, mutate func() bool) {
			t.Helper()
			before := tb.Snapshot().v
			changed := mutate()
			if err := checkStep(before, tb.Snapshot().v, changed); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := checkHosts(tb.Snapshot().v.hosts, ref); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for _, addr := range addrs {
				if err := checkLookup(tb, ref, addr); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		}
		flush := func() {
			ops := batch
			batch = nil
			step(fmt.Sprintf("Apply(%v)", ops), func() bool { tb.Apply(ops); return ref.apply(ops) })
		}
		for _, b := range data {
			p, nh := prefixes[b&7], NodeID(b>>3&3)
			switch b >> 6 {
			case 0, 1:
				batch = append(batch, Op{Prefix: p, NH: nh})
			case 2:
				batch = append(batch, Op{Prefix: p, NH: nh, Withdraw: true})
			case 3:
				flush()
				step(fmt.Sprintf("WithdrawAll(%d)", nh), func() bool { tb.WithdrawAll(nh, 0); return ref.withdrawAll(nh) })
				continue
			}
			if b&0x20 != 0 {
				flush()
			}
		}
		flush()
	})
}
