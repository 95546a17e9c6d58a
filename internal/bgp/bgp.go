// Package bgp models the routing control plane Duet relies on (paper §3.2,
// §3.3, §5.1): HMuxes announce /32 routes for their assigned VIPs, SMuxes
// announce the same VIPs inside shorter aggregate prefixes, and
// longest-prefix match makes the fabric prefer the HMux while it is alive.
// When an HMux fails or a VIP is withdrawn, routes converge after a
// propagation delay (the paper measures <40 ms), after which traffic falls
// through to the SMux aggregate.
//
// The table is time-aware: announcements and withdrawals carry an effective
// time, and Pick answers "what did the fabric believe at time t". No caller
// passes a future time any more — internal/testbed schedules the mutation
// itself when a propagation delay has passed, and core.Cluster reads the
// converged view — but bench/ pins both signatures.
//
// Structure: the table is a persistent path-compressed (Patricia) trie. A
// node exists only where a prefix was announced or where two announced
// prefixes' paths branch, and it holds its own prefix, so Pick visits the
// few prefixes that cover an address — the aggregate, the /32, and about
// log2(routes) branches between them — instead of 33 bit levels. A withdrawn
// route stays in its node, stamped with its withdrawal time, so the trie
// never deletes a node: an insert that may split an edge is its one
// structural edit.
//
// Concurrency: mutators (Announce, Withdraw, WithdrawAll) serialize on an
// internal lock and path-copy only the nodes they touch, then publish the
// new root through an atomic pointer; a call that changes no route publishes
// nothing. Readers (Pick) load the root once and walk an immutable
// structure, so any number of dataplane goroutines can resolve routes
// concurrently with control-plane churn and never observe a torn or
// partially applied update.
package bgp

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"duet/internal/packet"
	"duet/internal/telemetry"
)

// NodeID identifies a route's next hop: a switch (HMux) or an SMux. The
// caller owns the numbering scheme.
type NodeID int32

// DefaultConvergence is the default route propagation delay in seconds,
// matched to the paper's measured sub-40ms BGP convergence (§7.2).
const DefaultConvergence = 0.035

// routeEntry is one (nexthop, lifetime) pair stored in a trie node. Entries
// are immutable once published; refreshing a route replaces the entry.
type routeEntry struct {
	nh          NodeID
	visibleAt   float64 // time the announcement has converged
	withdrawnAt float64 // time a withdrawal has converged (+Inf while active)
}

// active reports whether the route is usable at time now.
func (e routeEntry) active(now float64) bool {
	return now >= e.visibleAt && now < e.withdrawnAt
}

// node is one node of the persistent path-compressed (Patricia) trie. A node
// exists only where a prefix was announced or where the paths to two such
// prefixes branch, and it stores its own prefix, so a walk compares whole
// prefixes instead of stepping one bit at a time. Routes are never deleted
// — a withdrawal stamps an entry's withdrawnAt — so a node never goes away
// and the only structural edit is an insert, which may split an edge. Nodes
// are immutable after publication: a mutator copies every node on the
// root→prefix path (and the edited node's route slice) instead of writing
// in place.
type node struct {
	prefix   packet.Prefix // host bits zero
	children [2]*node      // by the first address bit past prefix.Bits
	routes   []routeEntry  // sorted by NodeID; nil on a branch no prefix ends at
}

// clone returns a shallow copy of n whose route slice is also copied, ready
// for mutation before publication.
func (n *node) clone() *node {
	cp := &node{prefix: n.prefix, children: n.children}
	if n.routes != nil {
		cp.routes = append(make([]routeEntry, 0, len(n.routes)+1), n.routes...)
	}
	return cp
}

func (n *node) findRoute(nh NodeID) int {
	for i := range n.routes {
		if n.routes[i].nh == nh {
			return i
		}
	}
	return -1
}

func (n *node) hasActive(now float64) bool {
	for i := range n.routes {
		if n.routes[i].active(now) {
			return true
		}
	}
	return false
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

// insert returns a copy of the subtree n in which the node for p exists and
// edit has been applied to it: the nodes on the path are copied, a missing
// node is created — below the last node that covers p, splitting the edge to
// the first that does not with a branch where their addresses diverge.
func insert(n *node, p packet.Prefix, edit func(*node)) *node {
	if n == nil {
		leaf := &node{prefix: p}
		edit(leaf)
		return leaf
	}
	common := min(n.prefix.Bits, p.Bits, bits.LeadingZeros32(uint32(n.prefix.Addr^p.Addr)))
	switch {
	case common == n.prefix.Bits && common == p.Bits: // n is p's node
		cp := n.clone()
		edit(cp)
		return cp
	case common == n.prefix.Bits: // p lies below n
		cp := &node{prefix: n.prefix, children: n.children, routes: n.routes}
		b := bit(p.Addr, common)
		cp.children[b] = insert(n.children[b], p, edit)
		return cp
	}
	var top *node
	if common == p.Bits { // n lies below p: p's node takes n's place
		top = &node{prefix: p}
		edit(top)
	} else { // the paths diverge: a branch takes n's place
		top = &node{prefix: packet.PrefixFrom(p.Addr, common)}
		leaf := &node{prefix: p}
		edit(leaf)
		top.children[bit(p.Addr, common)] = leaf
	}
	top.children[bit(n.prefix.Addr, common)] = n
	return top
}

// Table is a time-aware longest-prefix-match routing table representing the
// converged view of the whole fabric. Reads are lock-free; writes serialize
// on an internal mutex and publish copy-on-write snapshots.
type Table struct {
	mu   sync.Mutex           // serializes mutators
	root atomic.Pointer[node] // nil while the table is empty

	telAnnounces telemetry.CounterShard
	telWithdraws telemetry.CounterShard
	telRec       *telemetry.Recorder
}

// NewTable creates an empty table.
func NewTable() *Table {
	return &Table{}
}

// SetTelemetry attaches the table to a metric registry and flight recorder.
// Route events are stamped with their convergence time (visibleAt /
// effectiveAt), so the trace shows when the fabric's view changed rather
// than when the call was made.
func (t *Table) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	t.telAnnounces = reg.Counter("bgp.announces").Shard()
	t.telWithdraws = reg.Counter("bgp.withdraws").Shard()
	t.telRec = rec
}

// Snapshot is an immutable view of the table at one instant. It is a small
// value (copying it does not copy the trie) and all its methods are safe for
// concurrent use; later mutations of the source table are never visible
// through it.
type Snapshot struct {
	root *node
}

// Snapshot captures the current routing view.
//
//duet:hotpath
func (t *Table) Snapshot() Snapshot {
	return Snapshot{root: t.root.Load()}
}

// Announce installs a route for prefix via nexthop, visible to the fabric at
// time visibleAt (the announcement time plus convergence delay). Re-announcing
// an active route is a no-op except that it cancels a pending withdrawal.
func (t *Table) Announce(p packet.Prefix, nh NodeID, visibleAt float64) {
	p = packet.PrefixFrom(p.Addr, p.Bits)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.telAnnounces.Inc()
	t.telRec.RecordAt(visibleAt, telemetry.KindBGPAnnounce, uint32(nh), uint32(p.Addr), 0, uint64(p.Bits))
	root := t.root.Load()
	if n := find(root, p); n != nil {
		if i := n.findRoute(nh); i >= 0 && visibleAt >= n.routes[i].visibleAt && math.IsInf(n.routes[i].withdrawnAt, 1) {
			return // a refresh that changes neither field publishes nothing
		}
	}
	t.root.Store(insert(root, p, func(n *node) {
		if i := n.findRoute(nh); i >= 0 {
			// Refresh: keep the earliest visibility, clear any withdrawal.
			e := &n.routes[i]
			e.visibleAt = min(e.visibleAt, visibleAt)
			e.withdrawnAt = math.Inf(1)
			return
		}
		// Insert keeping the slice sorted by NodeID, so readers can pick the
		// k-th next hop deterministically without sorting.
		at := len(n.routes)
		for i := range n.routes {
			if n.routes[i].nh > nh {
				at = i
				break
			}
		}
		n.routes = slices.Insert(n.routes, at, routeEntry{nh: nh, visibleAt: visibleAt, withdrawnAt: math.Inf(1)})
	}))
}

// Withdraw removes the route for prefix via nexthop, effective at time
// effectiveAt. Withdrawing an unknown route is a no-op.
func (t *Table) Withdraw(p packet.Prefix, nh NodeID, effectiveAt float64) {
	p = packet.PrefixFrom(p.Addr, p.Bits)
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.root.Load()
	n := find(root, p)
	if n == nil {
		return
	}
	i := n.findRoute(nh)
	if i < 0 {
		return
	}
	t.telWithdraws.Inc()
	t.telRec.RecordAt(effectiveAt, telemetry.KindBGPWithdraw, uint32(nh), uint32(p.Addr), 0, uint64(p.Bits))
	if effectiveAt >= n.routes[i].withdrawnAt {
		return // already withdrawn at that time or sooner: nothing to publish
	}
	t.root.Store(insert(root, p, func(n *node) { n.routes[i].withdrawnAt = effectiveAt }))
}

// Pick resolves addr against the snapshot: of the n next hops of the longest
// prefix matching addr with at least one route active at time now, it returns
// the (hash mod n)-th — the ECMP decision — without allocating. ok is false if
// nothing matches. This is the dataplane entry point.
//
//duet:hotpath
func (s Snapshot) Pick(addr packet.Addr, now float64, hash uint64) (nh NodeID, matched packet.Prefix, ok bool) {
	best := s.match(addr, now)
	if best == nil {
		return 0, packet.Prefix{}, false
	}
	active := 0
	for _, e := range best.routes {
		if e.active(now) {
			active++
		}
	}
	k := int(hash % uint64(active))
	for _, e := range best.routes {
		if !e.active(now) {
			continue
		}
		if k == 0 {
			return e.nh, best.prefix, true
		}
		k--
	}
	return 0, packet.Prefix{}, false // unreachable: active > 0
}

// match returns the deepest node on addr's path holding an active route.
//
//duet:hotpath
func (s Snapshot) match(addr packet.Addr, now float64) *node {
	var best *node
	for n := s.root; n != nil && contains(n.prefix, addr); n = n.children[bit(addr, n.prefix.Bits)] {
		if n.hasActive(now) {
			best = n
		}
		if n.prefix.Bits == 32 {
			break
		}
	}
	return best
}

// WithdrawAll withdraws every route announced by nexthop anywhere in the
// table, effective at effectiveAt — what the fabric does when it detects a
// dead HMux (paper §5.1 "HMux failure"). The routes are visited in pre-order,
// which is (address, length) order.
func (t *Table) WithdrawAll(nh NodeID, effectiveAt float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var walk func(n *node) *node
	walk = func(n *node) *node {
		if n == nil {
			return nil
		}
		cp := n
		if i := n.findRoute(nh); i >= 0 && effectiveAt < n.routes[i].withdrawnAt {
			cp = n.clone()
			cp.routes[i].withdrawnAt = effectiveAt
			// One event per dead route, so a fabric-detected HMux failure
			// leaves the same trace shape as explicit withdrawals.
			t.telWithdraws.Inc()
			t.telRec.RecordAt(effectiveAt, telemetry.KindBGPWithdraw, uint32(nh), uint32(n.prefix.Addr), 0, uint64(n.prefix.Bits))
		}
		for b, child := range n.children {
			if c := walk(child); c != child {
				if cp == n {
					cp = n.clone()
				}
				cp.children[b] = c
			}
		}
		return cp
	}
	old := t.root.Load()
	if root := walk(old); root != old {
		t.root.Store(root)
	}
}
