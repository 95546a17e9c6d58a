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
// Concurrency: the table is a persistent binary trie. Mutators (Announce,
// Withdraw, WithdrawAll) serialize on an internal lock and path-copy only the
// nodes they touch, then publish the new root through an atomic pointer.
// Readers (Pick) load the root once and walk an immutable structure,
// so any number of dataplane goroutines can resolve routes concurrently with
// control-plane churn and never observe a torn or partially applied update.
package bgp

import (
	"math"
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

// trieNode is one node of the persistent trie. Nodes are immutable after
// publication: mutators copy every node on the root→prefix path (and the
// terminal node's route slice) instead of writing in place.
type trieNode struct {
	children [2]*trieNode
	routes   []routeEntry // sorted by NodeID; nil until a prefix terminates here
}

// clone returns a shallow copy of n whose route slice is also copied, ready
// for mutation before publication.
func (n *trieNode) clone() *trieNode {
	cp := &trieNode{children: n.children}
	if n.routes != nil {
		cp.routes = append(make([]routeEntry, 0, len(n.routes)), n.routes...)
	}
	return cp
}

func (n *trieNode) findRoute(nh NodeID) int {
	for i := range n.routes {
		if n.routes[i].nh == nh {
			return i
		}
	}
	return -1
}

func (n *trieNode) hasActive(now float64) bool {
	for i := range n.routes {
		if n.routes[i].active(now) {
			return true
		}
	}
	return false
}

// Table is a time-aware longest-prefix-match routing table representing the
// converged view of the whole fabric. Reads are lock-free; writes serialize
// on an internal mutex and publish copy-on-write snapshots.
type Table struct {
	mu   sync.Mutex // serializes mutators
	root atomic.Pointer[trieNode]

	telAnnounces telemetry.CounterShard
	telWithdraws telemetry.CounterShard
	telRec       *telemetry.Recorder
}

// NewTable creates an empty table.
func NewTable() *Table {
	t := &Table{}
	t.root.Store(&trieNode{})
	return t
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
	root *trieNode
}

// Snapshot captures the current routing view.
//
//duet:hotpath
func (t *Table) Snapshot() Snapshot {
	return Snapshot{root: t.root.Load()}
}

// mutate path-copies the root→prefix chain, applies fn to the (cloned)
// terminal node, and publishes the new root. Must be called with t.mu held.
// If create is false and the prefix path does not exist, fn is not called
// and nothing is published; mutate reports whether it published.
func (t *Table) mutate(p packet.Prefix, create bool, fn func(n *trieNode) bool) bool {
	old := t.root.Load()
	newRoot := old.clone()
	n := newRoot
	for i := 0; i < p.Bits; i++ {
		bit := (uint32(p.Addr) >> (31 - i)) & 1
		child := n.children[bit]
		if child == nil {
			if !create {
				return false
			}
			child = &trieNode{}
		}
		cp := child.clone()
		n.children[bit] = cp
		n = cp
	}
	if !fn(n) {
		return false
	}
	t.root.Store(newRoot)
	return true
}

// Announce installs a route for prefix via nexthop, visible to the fabric at
// time visibleAt (the announcement time plus convergence delay). Re-announcing
// an active route is a no-op except that it cancels a pending withdrawal.
func (t *Table) Announce(p packet.Prefix, nh NodeID, visibleAt float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.telAnnounces.Inc()
	t.telRec.RecordAt(visibleAt, telemetry.KindBGPAnnounce, uint32(nh), uint32(p.Addr), 0, uint64(p.Bits))
	t.mutate(p, true, func(n *trieNode) bool {
		if i := n.findRoute(nh); i >= 0 {
			// Refresh: keep the earliest visibility, clear any withdrawal.
			e := n.routes[i]
			if visibleAt < e.visibleAt {
				e.visibleAt = visibleAt
			}
			e.withdrawnAt = math.Inf(1)
			n.routes[i] = e
			return true
		}
		// Insert keeping the slice sorted by NodeID, so readers can pick the
		// k-th next hop deterministically without sorting.
		e := routeEntry{nh: nh, visibleAt: visibleAt, withdrawnAt: math.Inf(1)}
		at := len(n.routes)
		for i := range n.routes {
			if n.routes[i].nh > nh {
				at = i
				break
			}
		}
		n.routes = append(n.routes, routeEntry{})
		copy(n.routes[at+1:], n.routes[at:])
		n.routes[at] = e
		return true
	})
}

// Withdraw removes the route for prefix via nexthop, effective at time
// effectiveAt. Withdrawing an unknown route is a no-op.
func (t *Table) Withdraw(p packet.Prefix, nh NodeID, effectiveAt float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mutate(p, false, func(n *trieNode) bool {
		i := n.findRoute(nh)
		if i < 0 {
			return false
		}
		if effectiveAt < n.routes[i].withdrawnAt {
			n.routes[i].withdrawnAt = effectiveAt
		}
		t.telWithdraws.Inc()
		t.telRec.RecordAt(effectiveAt, telemetry.KindBGPWithdraw, uint32(nh), uint32(p.Addr), 0, uint64(p.Bits))
		return true
	})
}

// Pick resolves addr against the snapshot: of the n next hops of the longest
// prefix matching addr with at least one route active at time now, it returns
// the (hash mod n)-th — the ECMP decision — without allocating. ok is false if
// nothing matches. This is the dataplane entry point.
//
//duet:hotpath
func (s Snapshot) Pick(addr packet.Addr, now float64, hash uint64) (nh NodeID, matched packet.Prefix, ok bool) {
	bestNode, bestBits := s.match(addr, now)
	if bestNode == nil {
		return 0, packet.Prefix{}, false
	}
	active := 0
	for _, e := range bestNode.routes {
		if e.active(now) {
			active++
		}
	}
	k := int(hash % uint64(active))
	for _, e := range bestNode.routes {
		if !e.active(now) {
			continue
		}
		if k == 0 {
			return e.nh, packet.PrefixFrom(addr, bestBits), true
		}
		k--
	}
	return 0, packet.Prefix{}, false // unreachable: active > 0
}

// match returns the deepest node on addr's path holding an active route.
func (s Snapshot) match(addr packet.Addr, now float64) (*trieNode, int) {
	n := s.root
	var bestNode *trieNode
	var bestBits int
	if n.hasActive(now) {
		bestNode, bestBits = n, 0
	}
	for i := 0; i < 32 && n != nil; i++ {
		bit := (uint32(addr) >> (31 - i)) & 1
		n = n.children[bit]
		if n != nil && n.hasActive(now) {
			bestNode, bestBits = n, i+1
		}
	}
	return bestNode, bestBits
}

// WithdrawAll withdraws every route announced by nexthop anywhere in the
// table, effective at effectiveAt — what the fabric does when it detects a
// dead HMux (paper §5.1 "HMux failure").
func (t *Table) WithdrawAll(nh NodeID, effectiveAt float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.root.Load()
	var walk func(n *trieNode, addr uint32, bits int) *trieNode
	walk = func(n *trieNode, addr uint32, bits int) *trieNode {
		if n == nil {
			return nil
		}
		var cp *trieNode
		ensure := func() *trieNode {
			if cp == nil {
				cp = n.clone()
			}
			return cp
		}
		if i := n.findRoute(nh); i >= 0 && effectiveAt < n.routes[i].withdrawnAt {
			ensure().routes[i].withdrawnAt = effectiveAt
			// One event per dead route, so a fabric-detected HMux failure
			// leaves the same trace shape as explicit withdrawals.
			t.telWithdraws.Inc()
			t.telRec.RecordAt(effectiveAt, telemetry.KindBGPWithdraw, uint32(nh), addr, 0, uint64(bits))
		}
		if bits < 32 {
			if c := walk(n.children[0], addr, bits+1); c != nil && c != n.children[0] {
				ensure().children[0] = c
			}
			if c := walk(n.children[1], addr|1<<(31-bits), bits+1); c != nil && c != n.children[1] {
				ensure().children[1] = c
			}
		}
		if cp != nil {
			return cp
		}
		return n
	}
	newRoot := walk(old, 0, 0)
	if newRoot != old {
		t.root.Store(newRoot)
	}
}
