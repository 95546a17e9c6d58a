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
// converged view — but bench/ pins both signatures: Announce(p, nh, at) and
// Pick(addr, now, hash).
//
// Structure: a switch keeps its /32s in an exact-match host table and its
// shorter prefixes in an LPM table, and so does this one. A /32 route lives
// in the host map (an addrmap.Map keyed by address) and nowhere else; every
// shorter prefix lives in a persistent path-compressed (Patricia) trie. Pick
// probes the host map once and uses a /32 with a route active at now; only
// on a miss does it walk the trie, whose nodes exist only where a prefix was
// announced or where two prefixes' paths branch, so the walk visits the few
// prefixes that cover the address, not 32 bit levels. A withdrawn route stays
// in its place, stamped with its withdrawal time, so neither structure ever
// deletes: the trie's one structural edit is an insert that may split an
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
	"math"
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

// DefaultConvergence is the default route propagation delay in seconds,
// matched to the paper's measured sub-40ms BGP convergence (§7.2).
const DefaultConvergence = 0.035

// routeEntry is one (nexthop, lifetime) pair of a prefix's route list.
// Entries are immutable once published; refreshing a route replaces the list.
type routeEntry struct {
	nh          NodeID
	visibleAt   float64 // time the announcement has converged
	withdrawnAt float64 // time a withdrawal has converged (+Inf while active)
}

// active reports whether the route is usable at time now.
func (e routeEntry) active(now float64) bool {
	return now >= e.visibleAt && now < e.withdrawnAt
}

// A prefix's routes — a trie node's or a host's — are a []routeEntry sorted
// by NodeID, so readers pick the k-th next hop deterministically without
// sorting. A published list is never written: the helpers below return a new
// one.

// findRoute returns the index of nh's entry in rs, or -1.
func findRoute(rs []routeEntry, nh NodeID) int {
	for i := range rs {
		if rs[i].nh == nh {
			return i
		}
	}
	return -1
}

func hasActive(rs []routeEntry, now float64) bool {
	for i := range rs {
		if rs[i].active(now) {
			return true
		}
	}
	return false
}

// announced returns rs with nh's route announced visible at at: refreshed if
// present (the earliest visibility kept, a withdrawal cleared), inserted in
// NodeID order if not. changed is false, and the result rs itself, for a
// refresh that moves neither time.
func announced(rs []routeEntry, nh NodeID, at float64) (next []routeEntry, changed bool) {
	if i := findRoute(rs, nh); i >= 0 {
		if at >= rs[i].visibleAt && math.IsInf(rs[i].withdrawnAt, 1) {
			return rs, false
		}
		next = slices.Clone(rs)
		next[i] = routeEntry{nh: nh, visibleAt: min(rs[i].visibleAt, at), withdrawnAt: math.Inf(1)}
		return next, true
	}
	pos := len(rs)
	for i := range rs {
		if rs[i].nh > nh {
			pos = i
			break
		}
	}
	// Clipped, rs has no room to grow into: Insert copies it.
	return slices.Insert(slices.Clip(rs), pos, routeEntry{nh: nh, visibleAt: at, withdrawnAt: math.Inf(1)}), true
}

// withdrawn returns rs with nh's route withdrawn at at. found reports whether
// rs holds a route via nh; changed is false, and the result rs itself, unless
// at is sooner than the withdrawal already recorded.
func withdrawn(rs []routeEntry, nh NodeID, at float64) (next []routeEntry, found, changed bool) {
	i := findRoute(rs, nh)
	if i < 0 || at >= rs[i].withdrawnAt {
		return rs, i >= 0, false
	}
	next = slices.Clone(rs)
	next[i].withdrawnAt = at
	return next, true, true
}

// node is one node of the persistent path-compressed (Patricia) trie of
// prefixes shorter than /32. A node exists only where a prefix was announced
// or where the paths to two such prefixes branch, and it stores its own
// prefix, so a walk compares whole prefixes instead of stepping one bit at a
// time. Routes are never deleted, so a node never goes away and the only
// structural edit is an insert, which may split an edge. Nodes are immutable
// after publication: a mutator copies every node on the root→prefix path
// instead of writing in place.
type node struct {
	prefix   packet.Prefix // host bits zero, Bits < 32
	children [2]*node      // by the first address bit past prefix.Bits
	routes   []routeEntry  // nil on a branch no prefix ends at
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
func insert(n *node, p packet.Prefix, routes []routeEntry) *node {
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

// match returns the deepest node on addr's path holding a route active at
// now, or nil.
func match(n *node, addr packet.Addr, now float64) *node {
	var best *node
	for ; n != nil && contains(n.prefix, addr); n = n.children[bit(addr, n.prefix.Bits)] {
		if hasActive(n.routes, now) {
			best = n
		}
	}
	return best
}

// view is one published generation of the table: the host map of /32s and
// the trie of everything shorter. Neither is written once published.
type view struct {
	hosts addrmap.Map[[]routeEntry]
	root  *node  // nil while no shorter prefix was announced
	gen   uint64 // publishes so far
}

// Table is a time-aware longest-prefix-match routing table representing the
// converged view of the whole fabric. Reads are lock-free; writes serialize
// on an internal mutex and publish copy-on-write views, one per batch.
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
// Route events are stamped with their convergence time (an Op's At), so the
// trace shows when the fabric's view changed rather than when the call was
// made.
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
// Prefix via NH visible to the fabric at At (the announcement time plus
// convergence delay) or, with Withdraw, its withdrawal effective at At.
type Op struct {
	Prefix   packet.Prefix
	NH       NodeID
	At       float64
	Withdraw bool
}

// Apply applies ops in order and publishes the result as one view, or
// nothing if no route changed. Re-announcing an active route changes nothing
// unless it makes the route visible sooner, and cancels a pending
// withdrawal; withdrawing an unknown route, or one already withdrawn no
// later than At, changes nothing. Every announcement, and every withdrawal of
// a known route, is counted and traced whether or not it changes a route.
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
		var rs []routeEntry
		if p.Bits == 32 {
			rs, _ = hosts.Get(p.Addr)
		} else if n := find(root, p); n != nil {
			rs = n.routes
		}
		var moved bool
		if op.Withdraw {
			var found bool
			if rs, found, moved = withdrawn(rs, op.NH, op.At); !found {
				continue
			}
			t.telWithdraws.Inc()
			t.telRec.RecordAt(op.At, telemetry.KindBGPWithdraw, uint32(op.NH), uint32(p.Addr), 0, uint64(p.Bits))
		} else {
			t.telAnnounces.Inc()
			t.telRec.RecordAt(op.At, telemetry.KindBGPAnnounce, uint32(op.NH), uint32(p.Addr), 0, uint64(p.Bits))
			rs, moved = announced(rs, op.NH, op.At)
		}
		if !moved {
			continue
		}
		if changed = true; p.Bits == 32 {
			hosts.Set(p.Addr, rs)
		} else {
			root = insert(root, p, rs)
		}
	}
	if changed {
		t.view.Store(&view{hosts: hosts.Map(), root: root, gen: cur.gen + 1})
	}
}

// Announce installs a route for prefix via nexthop, visible to the fabric at
// time visibleAt: a batch of one announcement.
func (t *Table) Announce(p packet.Prefix, nh NodeID, visibleAt float64) {
	t.Apply([]Op{{Prefix: p, NH: nh, At: visibleAt}})
}

// WithdrawAll withdraws every route announced by nexthop anywhere in the
// table, effective at effectiveAt, as one batch — what the fabric does when it
// detects a dead HMux (paper §5.1 "HMux failure"). The withdrawals are applied
// and traced in (address, length) order.
func (t *Table) WithdrawAll(nh NodeID, effectiveAt float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ops []Op
	gone := func(p packet.Prefix, rs []routeEntry) {
		if i := findRoute(rs, nh); i >= 0 && effectiveAt < rs[i].withdrawnAt {
			ops = append(ops, Op{Prefix: p, NH: nh, At: effectiveAt, Withdraw: true})
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
	cur.hosts.Range(func(a packet.Addr, rs []routeEntry) { gone(packet.HostPrefix(a), rs) })
	slices.SortFunc(ops, func(a, b Op) int {
		return cmp.Or(cmp.Compare(a.Prefix.Addr, b.Prefix.Addr), cmp.Compare(a.Prefix.Bits, b.Prefix.Bits))
	})
	t.apply(ops)
}

// Pick resolves addr against the snapshot: of the n next hops of the longest
// prefix matching addr with at least one route active at time now, it returns
// the (hash mod n)-th — the ECMP decision — without allocating. ok is false if
// nothing matches. A /32 is one host-map probe; the trie is walked only when
// addr has no /32 route active at now. This is the dataplane entry point.
//
//duet:hotpath
func (s Snapshot) Pick(addr packet.Addr, now float64, hash uint64) (nh NodeID, matched packet.Prefix, ok bool) {
	rs, found := s.v.hosts.Get(addr)
	matched = packet.Prefix{Addr: addr, Bits: 32}
	if !found || !hasActive(rs, now) {
		n := match(s.v.root, addr, now)
		if n == nil {
			return 0, packet.Prefix{}, false
		}
		rs, matched = n.routes, n.prefix
	}
	active := 0
	for i := range rs {
		if rs[i].active(now) {
			active++
		}
	}
	var k uint64 // one active route takes no divide
	if active > 1 {
		k = hash % uint64(active)
	}
	for i := range rs {
		if rs[i].active(now) {
			if k == 0 {
				return rs[i].nh, matched, true
			}
			k--
		}
	}
	return 0, packet.Prefix{}, false // unreachable: active > 0
}
