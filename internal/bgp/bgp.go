// Package bgp models the routing control plane Duet relies on (paper §3.2,
// §3.3, §5.1): HMuxes announce /32 routes for their assigned VIPs, SMuxes
// announce the same VIPs inside shorter aggregate prefixes, and
// longest-prefix match makes the fabric prefer the HMux while it is alive.
// When an HMux fails or a VIP is withdrawn, traffic falls through to the SMux
// aggregate.
//
// The table is the converged fabric: a route is present or absent, and a
// change is in force once its batch returns. Propagation delay is the
// caller's to model — internal/testbed applies each route change once its
// LatBGP has passed. Announce(p, nh, at) and WithdrawAll(nh, at) take a time
// only to stamp the trace events they leave, and Pick(addr, now, hash)
// ignores its now, which bench/ still passes.
//
// Structure: a switch keeps its /32s in an exact-match host table and its
// shorter prefixes in an LPM table, and so does this one. A /32 route lives
// in the host map (an addrmap.Map keyed by address) and nowhere else; every
// shorter prefix lives in a persistent path-compressed (Patricia) trie. Pick
// probes the host map once; only on a miss does it walk the trie, whose nodes
// exist only where a prefix was announced or where two prefixes' paths
// branch, so the walk visits the few prefixes that cover the address, not 32
// bit levels. A withdrawal that removes a /32's last route deletes the /32
// from the host map; a shorter prefix keeps its trie node with an empty route
// list, so the trie's one structural edit is an insert that may split an
// edge.
//
// Concurrency: mutators (Apply, and Announce and WithdrawAll, which are
// batches) serialize on an internal lock and derive the next view from the
// published one — the trie path-copies the nodes an op touches, the host map
// is edited through one addrmap.Edit per batch, so each chunk is copied once
// however many /32s the batch moves — then publish it through an atomic
// pointer, at most once per batch; a batch that changes no route publishes
// nothing. Readers (Pick) load the view once and read an immutable
// structure, so any number of dataplane goroutines can resolve routes
// concurrently with control-plane churn and never observe a torn or
// partially applied batch.
package bgp

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"duet/internal/addrmap"
	"duet/internal/packet"
	"duet/internal/telemetry"
)

// NodeID identifies a route's next hop: a switch (HMux) or an SMux. The
// caller owns the numbering scheme.
type NodeID int32

// A prefix's routes — a trie node's or a host's — are its next hops, a
// []NodeID sorted ascending, so readers pick the k-th next hop
// deterministically without sorting. A published list is never written: the
// helpers below return a new one.

// announced returns rs with nh inserted in order; changed is false, and the
// result rs itself, if rs already holds nh.
func announced(rs []NodeID, nh NodeID) (next []NodeID, changed bool) {
	i, found := slices.BinarySearch(rs, nh)
	if found {
		return rs, false
	}
	// Clipped, rs has no room to grow into: Insert copies it.
	return slices.Insert(slices.Clip(rs), i, nh), true
}

// withdrawn returns rs without nh; found is false, and the result rs itself,
// if rs does not hold nh. A list nh was the last of comes back empty, not nil.
func withdrawn(rs []NodeID, nh NodeID) (next []NodeID, found bool) {
	i, found := slices.BinarySearch(rs, nh)
	if !found {
		return rs, false
	}
	return slices.Delete(slices.Clone(rs), i, i+1), true
}

// node is one node of the persistent path-compressed (Patricia) trie of
// prefixes shorter than /32. A node exists only where a prefix was announced
// or where the paths to two such prefixes branch, and it stores its own
// prefix, so a walk compares whole prefixes instead of stepping one bit at a
// time. A prefix whose last route is withdrawn keeps its node with an empty
// list, so a node never goes away and the only structural edit is an insert,
// which may split an edge. Nodes are immutable
// after publication: a mutator copies every node on the root→prefix path
// instead of writing in place.
type node struct {
	prefix   packet.Prefix // host bits zero, Bits < 32
	children [2]*node      // by the first address bit past prefix.Bits
	routes   []NodeID      // nil on a branch no prefix ends at
}

// bit returns addr's i-th most significant bit (i < 32).
func bit(addr packet.Addr, i int) int {
	return int(uint32(addr)>>(31-i)) & 1
}

// contains reports whether the prefix covers addr.
func contains(p packet.Prefix, addr packet.Addr) bool {
	return addr&packet.Mask(p.Bits) == p.Addr
}

// find returns the node whose prefix is p, or nil.
func find(n *node, p packet.Prefix) *node {
	for n != nil && n.prefix.Bits <= p.Bits && contains(n.prefix, p.Addr) {
		if n.prefix.Bits == p.Bits {
			return n
		}
		n = n.children[bit(p.Addr, n.prefix.Bits)]
	}
	return nil
}

// insert returns a copy of the subtree n in which p's node exists and holds
// routes: the nodes on the path are copied, a missing node is created — below
// the last node that covers p, splitting the edge to the first that does not
// with a branch where their addresses diverge.
func insert(n *node, p packet.Prefix, routes []NodeID) *node {
	if n == nil {
		return &node{prefix: p, routes: routes}
	}
	common := min(n.prefix.Bits, p.Bits, bits.LeadingZeros32(uint32(n.prefix.Addr^p.Addr)))
	switch {
	case common == n.prefix.Bits && common == p.Bits: // n is p's node
		return &node{prefix: p, children: n.children, routes: routes}
	case common == n.prefix.Bits: // p lies below n
		cp := *n
		b := bit(p.Addr, common)
		cp.children[b] = insert(n.children[b], p, routes)
		return &cp
	}
	var top *node
	if common == p.Bits { // n lies below p: p's node takes n's place
		top = &node{prefix: p, routes: routes}
	} else { // the paths diverge: a branch takes n's place
		top = &node{prefix: packet.PrefixFrom(p.Addr, common)}
		top.children[bit(p.Addr, common)] = &node{prefix: p, routes: routes}
	}
	top.children[bit(n.prefix.Addr, common)] = n
	return top
}

// match returns the deepest node on addr's path holding a route, or nil.
func match(n *node, addr packet.Addr) *node {
	var best *node
	for ; n != nil && contains(n.prefix, addr); n = n.children[bit(addr, n.prefix.Bits)] {
		if len(n.routes) > 0 {
			best = n
		}
	}
	return best
}

// view is one published generation of the table: the host map of /32s and
// the trie of everything shorter. Neither is written once published.
type view struct {
	hosts addrmap.Map[[]NodeID] // only /32s with a route: never an empty list
	root  *node                 // nil while no shorter prefix was announced
}

// Table is a longest-prefix-match routing table holding the converged view
// of the whole fabric: a route is present or absent. Reads are lock-free;
// writes serialize on an internal mutex and publish copy-on-write views, one
// per batch.
type Table struct {
	mu   sync.Mutex // serializes mutators
	view atomic.Pointer[view]

	telAnnounces telemetry.CounterShard
	telWithdraws telemetry.CounterShard
	telRec       *telemetry.Recorder
}

// NewTable creates an empty table.
func NewTable() *Table {
	t := &Table{}
	t.view.Store(&view{})
	return t
}

// SetTelemetry attaches the table to a metric registry and flight recorder.
// Route events are stamped with their Op's At, the time the caller says the
// fabric's view changed, rather than when the call was made.
func (t *Table) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	t.telAnnounces = reg.Counter("bgp.announces").Shard()
	t.telWithdraws = reg.Counter("bgp.withdraws").Shard()
	t.telRec = rec
}

// Snapshot is an immutable view of the table at one instant. It is one
// pointer (copying it copies nothing else) and all its methods are safe for
// concurrent use; later mutations of the source table are never visible
// through it.
type Snapshot struct {
	v *view
}

// Snapshot captures the current routing view.
//
//duet:hotpath
func (t *Table) Snapshot() Snapshot {
	return Snapshot{t.view.Load()}
}

// Op is one route change of a batch (Table.Apply): an announcement of
// Prefix via NH or, with Withdraw, its withdrawal. At is the time the trace
// event is stamped with; the change itself is in force once Apply returns.
type Op struct {
	Prefix   packet.Prefix
	NH       NodeID
	At       float64
	Withdraw bool
}

// Apply applies ops in order and publishes the result as one view, or
// nothing if no route changed. Re-announcing a present route and withdrawing
// an absent one change nothing. A withdrawal deletes a /32 whose last route
// it removes; a shorter prefix keeps its trie node. Every announcement, and
// every withdrawal of a present route, is counted and traced.
func (t *Table) Apply(ops []Op) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.apply(ops)
}

// apply is Apply under t.mu.
func (t *Table) apply(ops []Op) {
	cur := t.view.Load()
	root, hosts, changed := cur.root, cur.hosts.Edit(), false
	for _, op := range ops {
		p := packet.PrefixFrom(op.Prefix.Addr, op.Prefix.Bits)
		var rs []NodeID
		if p.Bits == 32 {
			rs, _ = hosts.Get(p.Addr)
		} else if n := find(root, p); n != nil {
			rs = n.routes
		}
		var moved bool
		if op.Withdraw {
			if rs, moved = withdrawn(rs, op.NH); !moved {
				continue
			}
			t.telWithdraws.Inc()
			t.telRec.RecordAt(op.At, telemetry.KindBGPWithdraw, uint32(op.NH), uint32(p.Addr), 0, uint64(p.Bits))
		} else {
			t.telAnnounces.Inc()
			t.telRec.RecordAt(op.At, telemetry.KindBGPAnnounce, uint32(op.NH), uint32(p.Addr), 0, uint64(p.Bits))
			if rs, moved = announced(rs, op.NH); !moved {
				continue
			}
		}
		switch changed = true; {
		case p.Bits < 32:
			root = insert(root, p, rs)
		case len(rs) == 0:
			hosts.Delete(p.Addr)
		default:
			hosts.Set(p.Addr, rs)
		}
	}
	if changed {
		t.view.Store(&view{hosts: hosts.Map(), root: root})
	}
}

// Announce installs a route for prefix via nexthop, its trace event stamped
// at: a batch of one announcement.
func (t *Table) Announce(p packet.Prefix, nh NodeID, at float64) {
	t.Apply([]Op{{Prefix: p, NH: nh, At: at}})
}

// WithdrawAll withdraws every route announced by nexthop anywhere in the
// table as one batch, its trace events stamped at — what the fabric does when
// it detects a dead HMux (paper §5.1 "HMux failure"). The withdrawals are
// applied and traced in (address, length) order.
func (t *Table) WithdrawAll(nh NodeID, at float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ops []Op
	gone := func(p packet.Prefix, rs []NodeID) {
		if _, found := slices.BinarySearch(rs, nh); found {
			ops = append(ops, Op{Prefix: p, NH: nh, At: at, Withdraw: true})
		}
	}
	var walk func(n *node)
	walk = func(n *node) {
		if n != nil {
			gone(n.prefix, n.routes)
			walk(n.children[0])
			walk(n.children[1])
		}
	}
	cur := t.view.Load()
	walk(cur.root)
	cur.hosts.Range(func(a packet.Addr, rs []NodeID) { gone(packet.HostPrefix(a), rs) })
	slices.SortFunc(ops, func(a, b Op) int {
		return cmp.Or(cmp.Compare(a.Prefix.Addr, b.Prefix.Addr), cmp.Compare(a.Prefix.Bits, b.Prefix.Bits))
	})
	t.apply(ops)
}

// Pick resolves addr against the snapshot: of the n next hops of the longest
// prefix matching addr, it returns the (hash mod n)-th — the ECMP decision —
// without allocating. ok is false if nothing matches. A /32 is one host-map
// probe; the trie is walked only when addr has no /32 route. The second
// parameter is ignored: the table holds the converged view, and only bench/
// still passes a time there. This is the dataplane entry point.
//
//duet:hotpath
func (s Snapshot) Pick(addr packet.Addr, _ float64, hash uint64) (nh NodeID, matched packet.Prefix, ok bool) {
	rs, found := s.v.hosts.Get(addr)
	matched = packet.Prefix{Addr: addr, Bits: 32}
	if !found {
		n := match(s.v.root, addr)
		if n == nil {
			return 0, packet.Prefix{}, false
		}
		rs, matched = n.routes, n.prefix
	}
	var k uint64 // one route takes no divide
	if len(rs) > 1 {
		k = hash % uint64(len(rs))
	}
	return rs[k], matched, true
}
