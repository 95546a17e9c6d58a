// Package netsim is the flow-level network simulator under Duet's VIP
// assignment algorithm and the failure studies (paper §4, §8.5). Traffic is
// treated as fluid: ECMP splits a flow equally across all shortest paths, so
// a unit of demand between two fabric nodes becomes a sparse vector of
// per-direction link loads. The assignment algorithm composes those vectors
// into cumulative utilization and minimizes the maximum (MRU).
package netsim

import (
	"errors"
	"slices"

	"duet/internal/topology"
)

// ErrUnreachable is returned when no path exists between two nodes (for
// example when failures have partitioned them).
var ErrUnreachable = errors.New("netsim: destination unreachable")

// LinkFrac is one entry of a sparse unit-flow vector: the fraction of the
// flow's rate crossing a directed link.
type LinkFrac struct {
	Dir  DirLink
	Frac float64
}

// DirLink identifies a direction of a physical link: 2*LinkID for A→B,
// 2*LinkID+1 for B→A.
type DirLink int32

// Forward returns the A→B direction of a link.
func Forward(l topology.LinkID) DirLink { return DirLink(2 * l) }

// Reverse returns the B→A direction of a link.
func Reverse(l topology.LinkID) DirLink { return DirLink(2*l + 1) }

// LinkOf returns the physical link of a directed link.
func (d DirLink) LinkOf() topology.LinkID { return topology.LinkID(d / 2) }

// Network wraps a topology with failure state and cached routing.
type Network struct {
	Topo *topology.Topology

	downSwitch []bool
	epoch      uint64 // bumped on every failure-state change

	distCache map[topology.SwitchID][]int32

	// The vector caches the placement scan reads once per candidate term:
	// flowIdx[src*NumSwitches+dst] and inetIdx[dst] hold 1 + the index of the
	// computed vector in vecs, 0 while it is not computed (a computed nil
	// vector — Internet ingress that terminates at dst — is a slot too). The
	// indexes are allocated on first use, so a Network nobody places on costs
	// nothing, and a failure-state change clears them in place.
	vecs    [][]LinkFrac
	flowIdx []int32
	inetIdx []int32
	// tight[i] is vecs[i]'s tight-link hint (see Vec), dropped with the
	// vectors on a failure-state change.
	tight []int32

	// The builders' scratch, allocated on first use and zero again after
	// each vector: a unit flow's inbound fraction per switch and the
	// switches in the order they split it, and the vector being summed.
	// Every fraction and share is positive, so a zero entry is one not yet
	// reached.
	frac  []float64
	order []topology.SwitchID
	next  []topology.Neighbor
	sum   accum
}

// accum sums a sparse vector in a dense per-directed-link array: add adds to
// a link's entry, in the order the caller makes the additions, and vector
// hands the entries out sorted by DirLink and zeroes them for the next one.
type accum struct {
	val  []float64
	dirs []DirLink // the links added to
}

func (a *accum) add(d DirLink, f float64) {
	if a.val[d] == 0 {
		a.dirs = append(a.dirs, d)
	}
	a.val[d] += f
}

func (a *accum) vector() []LinkFrac {
	slices.Sort(a.dirs)
	out := make([]LinkFrac, len(a.dirs))
	for i, d := range a.dirs {
		out[i] = LinkFrac{Dir: d, Frac: a.val[d]}
		a.val[d] = 0
	}
	a.dirs = a.dirs[:0]
	return out
}

// scratch allocates the builders' scratch on first use.
func (n *Network) scratch() {
	if n.frac == nil {
		n.frac = make([]float64, len(n.downSwitch))
		n.sum.val = make([]float64, n.NumDirLinks())
	}
}

// Vec is a handle on one memoised flow vector and its tight-link hint: the
// position in Links of the link at which a placement term riding the vector
// last failed the feasibility test, 0 until one has. The placement scan
// probes a term at its hint first, because loads only grow within a round
// and the link that rejected a term a moment ago almost always rejects the
// next one. The hint is only a hint: a stale one costs a probe, never a
// decision. A Vec is valid until the Network's next failure-state change;
// the zero Vec is the empty vector of a flow that stays on its switch.
type Vec struct {
	n *Network
	i int32 // index in n.vecs
}

// Links returns the vector. The slice is cached and must not be mutated.
func (v Vec) Links() []LinkFrac {
	if v.n == nil {
		return nil
	}
	return v.n.vecs[v.i]
}

// Tight returns the vector's hint, a valid position in Links when Links is
// not empty.
func (v Vec) Tight() int {
	if v.n == nil {
		return 0
	}
	return int(v.n.tight[v.i])
}

// SetTight records position k of Links as the vector's hint; a k outside
// Links is ignored.
func (v Vec) SetTight(k int) {
	if v.n != nil && k >= 0 && k < len(v.n.vecs[v.i]) {
		v.n.tight[v.i] = int32(k)
	}
}

// New creates a Network over topo with no failures.
func New(topo *topology.Topology) *Network {
	return &Network{
		Topo:       topo,
		downSwitch: make([]bool, topo.NumSwitches()),
		distCache:  make(map[topology.SwitchID][]int32),
	}
}

// remember appends vec, with a hint of 0, to the vector list and returns its
// index slot value.
func (n *Network) remember(vec []LinkFrac) int32 {
	n.vecs = append(n.vecs, vec)
	n.tight = append(n.tight, 0)
	return int32(len(n.vecs))
}

// vec returns the Vec of index slot value slot.
func (n *Network) vec(slot int32) Vec {
	return Vec{n: n, i: slot - 1}
}

// NumDirLinks returns the number of directed links (2 per physical link).
func (n *Network) NumDirLinks() int { return 2 * n.Topo.NumLinks() }

// Capacity returns the capacity of the physical link under a directed link.
func (n *Network) Capacity(d DirLink) float64 {
	return n.Topo.Link(d.LinkOf()).Capacity
}

// Epoch returns the failure-state version; it changes whenever failures are
// added or cleared, invalidating previously computed flow vectors.
func (n *Network) Epoch() uint64 { return n.epoch }

func (n *Network) invalidate() {
	n.epoch++
	clear(n.distCache)
	clear(n.flowIdx)
	clear(n.inetIdx)
	clear(n.vecs)
	n.vecs = n.vecs[:0]
	n.tight = n.tight[:0]
}

// FailSwitch marks a switch down. All its links stop carrying traffic.
func (n *Network) FailSwitch(s topology.SwitchID) {
	if !n.downSwitch[s] {
		n.downSwitch[s] = true
		n.invalidate()
	}
}

// RecoverSwitch marks a switch up again.
func (n *Network) RecoverSwitch(s topology.SwitchID) {
	if n.downSwitch[s] {
		n.downSwitch[s] = false
		n.invalidate()
	}
}

// FailContainer fails every switch in container c (paper §8.5's container
// failure scenario).
func (n *Network) FailContainer(c int) {
	for _, s := range n.Topo.ContainerSwitches(c) {
		n.downSwitch[s] = true
	}
	n.invalidate()
}

// ClearFailures restores every switch.
func (n *Network) ClearFailures() {
	for i := range n.downSwitch {
		n.downSwitch[i] = false
	}
	n.invalidate()
}

// SwitchUp reports whether a switch is alive.
func (n *Network) SwitchUp(s topology.SwitchID) bool { return !n.downSwitch[s] }

// linkUsable reports whether a link can carry traffic between two live
// switches.
func (n *Network) linkUsable(id topology.LinkID) bool {
	l := n.Topo.Link(id)
	return !n.downSwitch[l.A] && !n.downSwitch[l.B]
}

// dist returns (cached) hop distances from every switch to dst, or nil
// entries (-1) for unreachable switches.
func (n *Network) dist(dst topology.SwitchID) []int32 {
	if d, ok := n.distCache[dst]; ok {
		return d
	}
	d := make([]int32, n.Topo.NumSwitches())
	for i := range d {
		d[i] = -1
	}
	if n.downSwitch[dst] {
		n.distCache[dst] = d
		return d
	}
	queue := make([]topology.SwitchID, 0, 64)
	d[dst] = 0
	queue = append(queue, dst)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, nb := range n.Topo.Neighbors[u] {
			if !n.linkUsable(nb.Link) || d[nb.Peer] >= 0 {
				continue
			}
			d[nb.Peer] = d[u] + 1
			queue = append(queue, nb.Peer)
		}
	}
	n.distCache[dst] = d
	return d
}

// UnitVec returns the sparse per-directed-link load vector for one unit of
// traffic from src to dst, ECMP-split equally across all shortest paths,
// with its tight-link hint. The vector is cached per pair.
func (n *Network) UnitVec(src, dst topology.SwitchID) (Vec, error) {
	if src == dst {
		return Vec{}, nil
	}
	if n.flowIdx == nil {
		n.flowIdx = make([]int32, len(n.downSwitch)*len(n.downSwitch))
	}
	slot := &n.flowIdx[int(src)*len(n.downSwitch)+int(dst)]
	if *slot != 0 {
		return n.vec(*slot), nil
	}
	if n.downSwitch[src] || n.downSwitch[dst] {
		return Vec{}, ErrUnreachable
	}
	d := n.dist(dst)
	if d[src] < 0 {
		return Vec{}, ErrUnreachable
	}

	// Propagate fractional flow down the shortest-path DAG. Nodes are
	// processed in order of decreasing distance so every node's inbound
	// fraction is complete before it splits outward.
	n.scratch()
	n.frac[src] = 1
	n.order = append(n.order[:0], src)
	for i := 0; i < len(n.order); i++ {
		u := n.order[i]
		f := n.frac[u]
		// Count downhill neighbors.
		n.next = n.next[:0]
		for _, nb := range n.Topo.Neighbors[u] {
			if n.linkUsable(nb.Link) && d[nb.Peer] == d[u]-1 {
				n.next = append(n.next, nb)
			}
		}
		if len(n.next) == 0 {
			// Only possible at dst (d==0) on a consistent BFS tree.
			continue
		}
		share := f / float64(len(n.next))
		for _, nb := range n.next {
			n.sum.add(n.direction(nb.Link, u), share)
			if nb.Peer == dst {
				continue
			}
			if n.frac[nb.Peer] == 0 {
				n.order = append(n.order, nb.Peer)
			}
			n.frac[nb.Peer] += share
		}
	}
	for _, u := range n.order {
		n.frac[u] = 0
	}
	*slot = n.remember(n.sum.vector())
	return n.vec(*slot), nil
}

// direction returns the DirLink for traversing link id out of switch from.
func (n *Network) direction(id topology.LinkID, from topology.SwitchID) DirLink {
	if n.Topo.Link(id).A == from {
		return Forward(id)
	}
	return Reverse(id)
}

// Loads is a dense per-directed-link traffic map in bits/second.
type Loads []float64

// NewLoads allocates a zeroed load map for the network.
func (n *Network) NewLoads() Loads { return make(Loads, n.NumDirLinks()) }

// MaxUtilization returns the highest per-direction link utilization in the
// load map and the directed link where it occurs. An empty network returns 0.
func (n *Network) MaxUtilization(l Loads) (float64, DirLink) {
	best, bestDir := 0.0, DirLink(-1)
	for dir := range l {
		if l[dir] == 0 {
			continue
		}
		u := l[dir] / n.Capacity(DirLink(dir))
		if u > best {
			best, bestDir = u, DirLink(dir)
		}
	}
	return best, bestDir
}

// InternetVec returns the sparse load vector of one unit of Internet
// ingress traffic destined to dst, with its tight-link hint: the unit is
// spread equally over all live core switches (where WAN traffic enters the
// fabric) and ECMP-routed to dst. The vector is cached per destination.
func (n *Network) InternetVec(dst topology.SwitchID) (Vec, error) {
	if n.inetIdx == nil {
		n.inetIdx = make([]int32, len(n.downSwitch))
	}
	slot := &n.inetIdx[dst]
	if *slot != 0 {
		return n.vec(*slot), nil
	}
	var cores []topology.SwitchID
	for i := 0; i < n.Topo.Cfg.Cores; i++ {
		if c := n.Topo.CoreID(i); n.SwitchUp(c) && c != dst {
			cores = append(cores, c)
		}
	}
	if len(cores) == 0 {
		// dst is the only live core (or none are): ingress terminates there.
		*slot = n.remember(nil)
		return n.vec(*slot), nil
	}
	// Every core's vector first: building one uses the scratch the sum is
	// made in. The sum then adds them link by link in core order.
	n.scratch()
	vecs := make([]Vec, len(cores))
	for i, c := range cores {
		vec, err := n.UnitVec(c, dst)
		if err != nil {
			return Vec{}, err
		}
		vecs[i] = vec
	}
	share := 1.0 / float64(n.Topo.Cfg.Cores)
	for _, vec := range vecs {
		for _, lf := range vec.Links() {
			n.sum.add(lf.Dir, share*lf.Frac)
		}
	}
	*slot = n.remember(n.sum.vector())
	return n.vec(*slot), nil
}
