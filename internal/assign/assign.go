// Package assign implements Duet's VIP–switch assignment algorithm
// (paper §4): a greedy approximation to the multi-dimensional bin-packing
// problem that places each VIP on the switch minimizing the maximum resource
// utilization (MRU) over all links and switch memories, subject to link
// headroom and table-capacity constraints. It also implements the Sticky
// migration variant (§4.2), the One-time and Non-sticky baselines used in
// Figure 20, and the Random/FFD baseline used in Figure 18.
package assign

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"duet/internal/netsim"
	"duet/internal/topology"
	"duet/internal/workload"
)

// Strategy selects the placement policy.
type Strategy int

const (
	// Greedy is the paper's algorithm: minimize MRU over candidates.
	Greedy Strategy = iota
	// Random is the Figure 18 baseline: the first feasible switch in a
	// random order (FFD flavour — VIPs are still processed in decreasing
	// traffic order).
	Random
	// BestFit is the §9 "more sophisticated bin packing" direction: instead
	// of minimizing only the max touched utilization, it minimizes the L2
	// norm of the touched utilizations, spreading load more evenly and
	// avoiding near-full resources even when they are not the current max.
	BestFit
)

// Unassigned marks a VIP that is not hosted on any HMux switch (it is
// served by the NIC tier or the SMux backstop; see Assignment.TierOf).
const Unassigned int32 = -1

// Tier identifies which mux tier serves a VIP.
type Tier int8

const (
	// TierSMux is the software backstop (the default for unplaced VIPs).
	TierSMux Tier = iota
	// TierHMux is the switch hardware tier.
	TierHMux
	// TierNMux is the per-host NIC match-table tier.
	TierNMux
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierHMux:
		return "hmux"
	case TierNMux:
		return "nmux"
	default:
		return "smux"
	}
}

// Options parameterize the assignment.
type Options struct {
	// MemCapacity is the per-switch VIP-mapping memory in DIP entries —
	// the tunneling-table capacity (512, paper §3.1).
	MemCapacity int

	// LinkHeadroom scales link capacity; the paper reserves 20% for
	// transients, i.e. capacity = 0.8 × bandwidth (§4).
	LinkHeadroom float64

	// MaxHMuxVIPs caps the number of VIPs assigned to HMuxes — every switch
	// must hold a /32 route per HMux VIP in its 16K host table (§3.3.2).
	MaxHMuxVIPs int

	// Delta is the Sticky threshold: a VIP moves only if its MRU improves
	// by more than Delta (§4.2; the evaluation uses 0.05).
	Delta float64

	// Strategy selects Greedy (default) or Random.
	Strategy Strategy

	// Seed drives tie-breaking (paper: "breaking ties at random") and the
	// Random strategy's candidate order.
	Seed int64

	// ContinueOnFail keeps assigning smaller VIPs after one VIP fails to
	// fit. The paper's algorithm terminates instead (§4.1); that is the
	// default (false).
	ContinueOnFail bool

	// FullScan disables the container-symmetry candidate reduction of §4.2
	// and evaluates every live switch for every VIP: `duetsim -fig
	// ablation-candidates` measures what the reduction buys.
	FullScan bool

	// NMuxTableSize enables the NIC match-table tier: each host NIC holds
	// this many entries, and a VIP placed there consumes 1 + NumDIPs of
	// them on every host (the wildcard set is replicated fleet-wide, so
	// admission is one aggregate budget). 0 disables the tier — the
	// two-tier paper algorithm is unchanged.
	NMuxTableSize int
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		MemCapacity:  512,
		LinkHeadroom: 0.8,
		MaxHMuxVIPs:  16384,
		Delta:        0.05,
	}
}

func (o Options) withDefaults() Options {
	if o.MemCapacity <= 0 {
		o.MemCapacity = 512
	}
	if o.LinkHeadroom <= 0 || o.LinkHeadroom > 1 {
		o.LinkHeadroom = 0.8
	}
	if o.MaxHMuxVIPs <= 0 {
		o.MaxHMuxVIPs = 16384
	}
	if o.Delta <= 0 {
		o.Delta = 0.05
	}
	return o
}

// Assignment is the result of one placement round.
type Assignment struct {
	// SwitchOf maps VIP index → switch ID, or Unassigned for VIPs not on
	// an HMux (see TierOf for whether those went to the NIC tier).
	SwitchOf []int32

	// TierOf maps VIP index → serving tier. TierHMux entries carry their
	// switch in SwitchOf; TierNMux and TierSMux entries are Unassigned
	// there.
	TierOf []Tier

	// Loads are the directed-link loads of HMux-assigned VIP traffic.
	Loads netsim.Loads

	// MemUsed is the per-switch DIP-entry usage.
	MemUsed []int

	// MRU is the final maximum resource utilization.
	MRU float64

	// AssignedRate and TotalRate are the VIP traffic on HMuxes vs overall.
	AssignedRate, TotalRate float64

	// NMuxRate is the VIP traffic on the NIC tier.
	NMuxRate float64

	// NumAssigned counts HMux-hosted VIPs.
	NumAssigned int

	// NumNMux counts NIC-hosted VIPs.
	NumNMux int

	// NMuxEntriesUsed is the per-host NIC match-table entries the placement
	// consumes (each host programs the same wildcard set).
	NMuxEntriesUsed int

	// Rescanned counts the VIPs this round actually re-priced: contribution
	// vectors recomputed plus pass-2 candidate scans. The from-scratch paths
	// set it to the VIP count; ComputeDelta keeps it near the number of
	// changed VIPs — the O(changed VIPs) claim (see delta.go).
	Rescanned int

	// delta is the incremental-assignment cache recorded by the compute
	// paths: a fingerprint of the placement inputs (epoch rates, per-VIP DIP
	// signatures, network failure epoch) plus every HMux VIP's committed
	// link-load contribution vector. ComputeDelta (delta.go) uses it to skip
	// recomputing flow vectors for VIPs whose inputs are unchanged. Nil on
	// assignments that did not come from a compute path (e.g. Revalidate).
	delta *deltaState
}

// AssignedFraction returns the fraction of VIP traffic handled by HMuxes
// (the Figure 20a metric).
func (a *Assignment) AssignedFraction() float64 {
	if a.TotalRate == 0 {
		return 0
	}
	return a.AssignedRate / a.TotalRate
}

// RatePerSwitch returns, for the given epoch, the VIP traffic assigned to
// each switch. The provisioning model uses it to size failure scenarios.
func (a *Assignment) RatePerSwitch(w *workload.Workload, epoch int, numSwitches int) []float64 {
	out := make([]float64, numSwitches)
	for v, s := range a.SwitchOf {
		if s != Unassigned {
			out[s] += w.Rates[epoch][v]
		}
	}
	return out
}

// UnassignedRate returns the traffic not hosted on HMuxes (NIC tier plus
// SMux backstop).
func (a *Assignment) UnassignedRate() float64 { return a.TotalRate - a.AssignedRate }

// NMuxFraction returns the fraction of VIP traffic handled by the NIC tier.
func (a *Assignment) NMuxFraction() float64 {
	if a.TotalRate == 0 {
		return 0
	}
	return a.NMuxRate / a.TotalRate
}

// SMuxRate returns the traffic left for the software backstop after both
// hardware tiers.
func (a *Assignment) SMuxRate() float64 { return a.TotalRate - a.AssignedRate - a.NMuxRate }

// SMuxFraction returns the fraction of VIP traffic on the software backstop.
func (a *Assignment) SMuxFraction() float64 {
	if a.TotalRate == 0 {
		return 0
	}
	return a.SMuxRate() / a.TotalRate
}

// nmuxPool models the replicated per-host NIC table during placement: every
// SMux server programs the same wildcard set, so admission is one aggregate
// entry budget scaled by nmuxHeadroom.
type nmuxPool struct {
	used, budget int
}

// nmuxHeadroom is the share of the NIC table the placer may fill, mirroring
// LinkHeadroom: the slack keeps room for the dataplane's exact-match flow
// entries and stays under the >90% occupancy watchdog.
const nmuxHeadroom = 0.9

func newNMuxPool(opts Options) nmuxPool {
	if opts.NMuxTableSize <= 0 {
		return nmuxPool{}
	}
	return nmuxPool{budget: int(float64(opts.NMuxTableSize) * nmuxHeadroom)}
}

// admit reserves VIP v's wildcard cost (one match rule plus one action entry
// per DIP) if the budget allows.
func (p *nmuxPool) admit(v *workload.VIP) bool {
	cost := 1 + v.NumDIPs()
	if p.budget <= 0 || p.used+cost > p.budget {
		return false
	}
	p.used += cost
	return true
}

// assigner carries the mutable state of one placement round: the committed
// fabric state the candidates are scored against, and the result being built.
type assigner struct {
	net  *netsim.Network
	work *workload.Workload
	ep   int
	opts Options
	rng  *rand.Rand

	res  *Assignment
	st   *deltaState // res's incremental cache, filled as VIPs commit
	pool nmuxPool
	// terminated is the §4.1 rule: once one VIP fits no switch, switch
	// placement stops for the round (unless Options.ContinueOnFail).
	terminated  bool
	randomOrder []int // fixed first-fit order of the Random strategy, drawn once

	loads   netsim.Loads
	memUsed []int
	effCap  []float64 // effective capacity per directed link
	runMax  float64   // running max utilization over committed resources

	// dense scratch for candidate evaluation: touched[dir] accumulates the
	// candidate's added load; dirty lists the touched indices for cheap
	// clearing between candidates.
	touched []float64
	dirty   []netsim.DirLink

	// per-VIP precomputed DIP rack weights, rebuilt in place by
	// loadDIPRacks; rackSort is the buffer its racks are sorted in.
	dipRacks []rackFrac
	rackSort []int

	// cands is the candidate set of §4.2 while candsFresh. It reads only
	// loads, memUsed and switch liveness: the first two change only in
	// commitVec, which clears candsFresh, and liveness is fixed for the round.
	cands      []topology.SwitchID
	candsFresh bool
	// probes is the scan's probe table: probes[i] is cands[i]'s memory use
	// and Internet-term hint link, refilled with the set.
	probes []inetProbe

	// pending is empty with room for every VIP index (the half of
	// vipOrder's buffer the order does not use); computeStable lists the
	// VIPs pass 2 places in it.
	pending []int

	// The round's infeasible link-tested evaluations: those a hint probe
	// settled, and those a walk did. Tests read them; nothing else does.
	probeRejects, walkRejects int
}

func newAssigner(net *netsim.Network, work *workload.Workload, epoch int, opts Options) *assigner {
	a := &assigner{
		net:     net,
		work:    work,
		ep:      epoch,
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		loads:   net.NewLoads(),
		memUsed: make([]int, net.Topo.NumSwitches()),
		effCap:  make([]float64, net.NumDirLinks()),
		touched: make([]float64, net.NumDirLinks()),
		dirty:   make([]netsim.DirLink, 0, 1024),
	}
	for d := range a.effCap {
		a.effCap[d] = opts.LinkHeadroom * net.Capacity(netsim.DirLink(d))
	}
	return a
}

// newRound validates the round's inputs and builds its assigner with an
// empty result — every VIP on the SMux backstop — plus the order VIPs are
// placed in. opts must already carry its defaults.
func newRound(net *netsim.Network, work *workload.Workload, epoch int, opts Options) (*assigner, []int, error) {
	if epoch < 0 || epoch >= work.NumEpochs() {
		return nil, nil, fmt.Errorf("assign: epoch %d out of range", epoch)
	}
	a := newAssigner(net, work, epoch, opts)
	a.st = newDeltaState(net, work, epoch)
	a.pool = newNMuxPool(opts)
	a.res = &Assignment{
		SwitchOf: make([]int32, len(work.VIPs)),
		TierOf:   make([]Tier, len(work.VIPs)), // zero value = TierSMux
		MemUsed:  a.memUsed,
	}
	for i := range a.res.SwitchOf {
		a.res.SwitchOf[i] = Unassigned
	}
	order, spare := vipOrder(work, epoch)
	a.pending = spare
	return a, order, nil
}

// finish seals the round's result.
func (a *assigner) finish() *Assignment {
	a.res.Loads = a.loads
	a.res.MRU = a.runMax
	a.res.delta = a.st
	return a.res
}

// rackFrac is one entry of a VIP's per-rack DIP weight vector. The vector is
// kept as a rack-sorted slice rather than a map so that every walk over it —
// and therefore every floating-point summation the placement performs — runs
// in one deterministic order. The incremental path (delta.go) relies on a
// recomputed contribution being bit-for-bit identical to a cached one, which
// map iteration order would break.
type rackFrac struct {
	rack int
	frac float64
}

// dipRackWeights aggregates a VIP's DIPs per rack, sorted by rack.
func dipRackWeights(v *workload.VIP) []rackFrac {
	return rackWeights(nil, append([]int(nil), v.DIPRacks...))
}

// rackWeights appends to dst the share of the DIPs on each rack of racks
// (one entry per DIP), in rack order; it sorts racks in place.
func rackWeights(dst []rackFrac, racks []int) []rackFrac {
	n := float64(len(racks))
	sort.Ints(racks)
	for i := 0; i < len(racks); {
		j := i
		for j < len(racks) && racks[j] == racks[i] {
			j++
		}
		dst = append(dst, rackFrac{rack: racks[i], frac: float64(j-i) / n})
		i = j
	}
	return dst
}

// loadDIPRacks makes VIP v the one the round's flow visits price: its DIP
// rack weights go into the round's own buffers.
func (a *assigner) loadDIPRacks(v *workload.VIP) {
	a.rackSort = append(a.rackSort[:0], v.DIPRacks...)
	a.dipRacks = rackWeights(a.dipRacks[:0], a.rackSort)
}

// vecFn receives one precomputed unit-flow vector and the rate riding it, and
// reports whether the visit should go on.
type vecFn func(vec netsim.Vec, rate float64) bool

// flows visits the load vectors created by placing VIP v on switch s.
func (a *assigner) flows(v *workload.VIP, rate float64, s topology.SwitchID, fn vecFn) bool {
	return visitFlowVecs(a.net, v, rate, s, a.dipRacks, fn)
}

// visitFlowVecs enumerates the fabric load vectors created by placing VIP
// v's mux function on switch s: intra-DC sources → s, the aggregated
// Internet-ingress vector → s, and s → the DIP racks, in that order (the
// order every running sum over them is taken in). Sources and sinks in
// failed domains are skipped (their traffic has vanished, §8.5). It returns
// false if any required path is unroutable or fn stopped the visit.
func visitFlowVecs(net *netsim.Network, v *workload.VIP, rate float64, s topology.SwitchID, dipRacks []rackFrac, fn vecFn) bool {
	return visitSrcVecs(net, v, rate, s, fn) && visitInetVec(net, v, rate, s, fn) && visitDIPVecs(net, rate, s, dipRacks, fn)
}

// visitSrcVecs visits the intra-DC source vectors of placing v on s.
func visitSrcVecs(net *netsim.Network, v *workload.VIP, rate float64, s topology.SwitchID, fn vecFn) bool {
	intra := rate * (1 - v.InternetFrac)
	for _, sw := range v.SrcRacks {
		src := net.Topo.Rack(sw.Rack)
		if src == s {
			continue
		}
		if !net.SwitchUp(src) {
			continue // sources inside a failed domain vanish
		}
		vec, err := net.UnitVec(src, s)
		if err != nil || !fn(vec, intra*sw.Weight) {
			return false
		}
	}
	return true
}

// visitInetVec visits the Internet-ingress vector of placing v on s, if v has
// an Internet share.
func visitInetVec(net *netsim.Network, v *workload.VIP, rate float64, s topology.SwitchID, fn vecFn) bool {
	if v.InternetFrac > 0 {
		vec, err := net.InternetVec(s)
		return err == nil && fn(vec, rate*v.InternetFrac)
	}
	return true
}

// visitDIPVecs visits the vectors from s to the DIP racks.
func visitDIPVecs(net *netsim.Network, rate float64, s topology.SwitchID, dipRacks []rackFrac, fn vecFn) bool {
	for _, rf := range dipRacks {
		dst := net.Topo.Rack(rf.rack)
		if dst == s || !net.SwitchUp(dst) {
			continue
		}
		vec, err := net.UnitVec(s, dst)
		if err != nil || !fn(vec, rate*rf.frac) {
			return false
		}
	}
	return true
}

// evaluate scores placing VIP v on switch s from the sparse set of touched
// links plus the switch-memory delta: the max touched utilization for
// Greedy/Random, or the L2 norm for BestFit. feasible is false if any
// touched resource would exceed 100% of its effective capacity.
//
// Most candidates do not fit, and evaluate proves that early, in three
// steps: each term alone at its vector's tight-link hint (the link at which a
// term on that vector last failed; loads only grow within a round, so it
// almost always fails again), the Internet-ingress term first (every
// candidate has it, and it is usually the heaviest), then the DIP-side terms,
// then the source terms; then the Internet term alone against each link it
// touches; then the full sum, which stops at the first link whose running sum
// fails the final test. The two walks record where they fail as the failing
// vector's new hint. Every exit is exact. Every term r*Frac is ≥ 0, and IEEE
// round-to-nearest addition is monotone, so a single term or a partial sum
// that fails the test means the full sum fails it too; the probes test each
// term alone, so the order they visit the terms in decides nothing. Only
// infeasible candidates stop early, and callers read nothing of an
// infeasible result but feasible == false: every feasible score is the full
// sum's.
func (a *assigner) evaluate(v *workload.VIP, rate float64, s topology.SwitchID) (mru float64, feasible bool) {
	if !a.net.SwitchUp(s) {
		return math.Inf(1), false
	}
	nd := v.NumDIPs()
	memU := float64(a.memUsed[s]+nd) / float64(a.opts.MemCapacity)
	if memU > 1 {
		return math.Inf(1), false
	}
	var inet netsim.Vec // the zero Vec, empty, without an Internet share
	if v.InternetFrac > 0 {
		var err error
		if inet, err = a.net.InternetVec(s); err != nil {
			return math.Inf(1), false
		}
	}
	r := rate * v.InternetFrac
	// The Internet term, usually the heaviest, is probed first; a DIP-side
	// term rejects more often than a source term.
	if !a.fitsAtHint(inet, r) ||
		!visitDIPVecs(a.net, rate, s, a.dipRacks, a.fitsAtHint) ||
		!visitSrcVecs(a.net, v, rate, s, a.fitsAtHint) {
		a.probeRejects++
		return math.Inf(1), false
	}
	for k, lf := range inet.Links() {
		if a.over(lf.Dir, r*lf.Frac) {
			inet.SetTight(k)
			a.walkRejects++
			return math.Inf(1), false
		}
	}
	if !a.accumulate(v, rate, s, true) {
		a.walkRejects++
		return math.Inf(1), false
	}
	// Every touched link passed the final test as its sum grew, so no u
	// below exceeds 1.
	max := memU
	l2 := memU * memU
	for _, dir := range a.dirty {
		u := (a.loads[dir] + a.touched[dir]) / a.effCap[dir]
		if u > max {
			max = u
		}
		l2 += u * u
	}
	if a.opts.Strategy == BestFit {
		return l2, true
	}
	// The score compares candidates by the maximum utilization among the
	// resources THIS placement touches. The true MRU of the round is
	// max(runMax, score), but runMax is identical for every candidate, so
	// folding it in would only flatten the comparison into ties — argmin of
	// the local score is a refinement of the paper's argmin-MRU rule.
	return max, true
}

// contribution builds VIP v's merged link-load vector for a placement on
// switch s: the per-directed-link sum of every flow the placement creates,
// in deterministic first-touch order. Unlike the unit-flow vectors, Frac
// here is an absolute load (bps), not a fraction. One routine serves both
// the from-scratch and the incremental paths, so a cached vector is
// bit-for-bit identical to a fresh recomputation whenever the VIP's rate,
// DIP rack vector, and the network failure epoch are unchanged. Returns
// (nil, false) when a required path is unroutable. The returned slice is
// freshly allocated and never mutated afterwards — safe to retain across
// epochs.
func (a *assigner) contribution(v *workload.VIP, rate float64, s topology.SwitchID) ([]netsim.LinkFrac, bool) {
	if !a.accumulate(v, rate, s, false) {
		return nil, false
	}
	out := make([]netsim.LinkFrac, len(a.dirty))
	for i, d := range a.dirty {
		out[i] = netsim.LinkFrac{Dir: d, Frac: a.touched[d]}
	}
	return out, true
}

// fitsAtHint reports whether the term r*vec passes the final feasibility
// test alone at vec's tight-link hint.
func (a *assigner) fitsAtHint(vec netsim.Vec, r float64) bool {
	links := vec.Links()
	if len(links) == 0 {
		return true
	}
	lf := links[vec.Tight()]
	return !a.over(lf.Dir, r*lf.Frac)
}

// accumulate resets the touched-link buffers and sums into them, in first-touch
// order, every flow vector of placing VIP v on switch s. With exitOver it
// stops at the first link whose running sum fails the final feasibility
// test, and makes that link its vector's hint. It reports false if a path is
// unroutable or the sum stopped.
func (a *assigner) accumulate(v *workload.VIP, rate float64, s topology.SwitchID, exitOver bool) bool {
	for _, d := range a.dirty {
		a.touched[d] = 0
	}
	a.dirty = a.dirty[:0]
	return a.flows(v, rate, s, func(vec netsim.Vec, r float64) bool {
		for k, lf := range vec.Links() {
			if a.touched[lf.Dir] == 0 {
				a.dirty = append(a.dirty, lf.Dir)
			}
			a.touched[lf.Dir] += r * lf.Frac
			if exitOver && a.over(lf.Dir, a.touched[lf.Dir]) {
				vec.SetTight(k)
				return false
			}
		}
		return true
	})
}

// over reports whether adding x to directed link d's committed load fails
// the final feasibility test (load+x)/effCap > 1. For an effCap from +0 up
// (a headroom share of a link capacity) that test is load+x > effCap,
// without the division: when l > c > 0, l is at least c plus one ulp of c,
// so the exact quotient l/c exceeds 1 + 2^-53, the midpoint between 1 and
// the next float, and its rounding is at least 1 + 2^-52; when c is 0, l/c
// is +Inf; and no l exceeds a capacity of +Inf or NaN, nor does a NaN l
// exceed anything (TestOverMatchesDivision).
func (a *assigner) over(d netsim.DirLink, x float64) bool {
	return a.loads[d]+x > a.effCap[d]
}

// apply adds a contribution vector to the committed link loads, tracking the
// running max utilization.
func (a *assigner) apply(vec []netsim.LinkFrac) {
	for _, lf := range vec {
		a.loads[lf.Dir] += lf.Frac
		if u := a.loads[lf.Dir] / a.effCap[lf.Dir]; u > a.runMax {
			a.runMax = u
		}
	}
}

// vecFeasible reports whether adding the contribution vector keeps every
// touched link within its effective capacity.
func (a *assigner) vecFeasible(vec []netsim.LinkFrac) bool {
	for _, lf := range vec {
		if a.over(lf.Dir, lf.Frac) {
			return false
		}
	}
	return true
}

// commit applies VIP v's placement on switch s to the round state and
// returns the merged contribution vector it applied (retained by the
// incremental cache; see delta.go).
func (a *assigner) commit(v *workload.VIP, rate float64, s topology.SwitchID) []netsim.LinkFrac {
	vec, _ := a.contribution(v, rate, s)
	a.commitVec(vec, s, v.NumDIPs())
	return vec
}

// commitVec is commit for a contribution vector already in hand: it adds
// the vector to the link loads and nd DIP entries to switch s's memory.
func (a *assigner) commitVec(vec []netsim.LinkFrac, s topology.SwitchID, nd int) {
	a.apply(vec)
	a.memUsed[s] += nd
	a.candsFresh = false
	if u := float64(a.memUsed[s]) / float64(a.opts.MemCapacity); u > a.runMax {
		a.runMax = u
	}
}

// candidates returns the reduced candidate set of §4.2: the least-loaded ToR
// per container, every Agg, and every Core. With Options.FullScan it returns
// every live switch instead. The set is rebuilt, in the round's own buffer,
// only after a commit; callers must not keep it across one.
func (a *assigner) candidates() []topology.SwitchID {
	if !a.candsFresh {
		a.cands = a.appendCandidates(a.cands[:0])
		a.probes = slices.Grow(a.probes[:0], len(a.cands))[:len(a.cands)]
		clear(a.probes) // every row stale
		a.candsFresh = true
	}
	return a.cands
}

// inetProbe is one candidate's row of the scan's probe table: the first two
// tests evaluate makes — the switch memory, and the Internet term alone at
// its vector's hint link — with what they read copied out, so that the scan
// rejects most candidates with a compare or two in a dense loop before
// evaluate runs. A row reads loads and memUsed, which change only in
// commitVec, so the table goes stale with the candidate set; and the hint,
// which a walk inside evaluate may move, so a row goes stale after every
// evaluate of its candidate. A row whose hint moved without it is still
// exact, only less apt: the Internet term alone fails at one of its links,
// whichever, only if the full sum fails there.
type inetProbe struct {
	// load, frac and cap are the hint link's committed load, the Internet
	// vector's unit share on it, and its effective capacity: the term at
	// rate r fails alone iff load+r*frac > cap. An Internet vector that
	// terminates at the candidate is cap +Inf; an unroutable one, which
	// every Internet share fails, is load +Inf, cap 0.
	load, frac, cap float64
	mem             int // memUsed of the candidate
	fresh           bool
}

// fillProbe refills p, the probe-table row of candidate s.
func (a *assigner) fillProbe(p *inetProbe, s topology.SwitchID) {
	*p = inetProbe{cap: math.Inf(1), mem: a.memUsed[s], fresh: true}
	inet, err := a.net.InternetVec(s)
	if err != nil {
		p.load, p.cap = math.Inf(1), 0
		return
	}
	if links := inet.Links(); len(links) > 0 {
		lf := links[inet.Tight()]
		p.load, p.frac, p.cap = a.loads[lf.Dir], lf.Frac, a.effCap[lf.Dir]
	}
}

// appendCandidates appends the candidate set to out.
func (a *assigner) appendCandidates(out []topology.SwitchID) []topology.SwitchID {
	topo := a.net.Topo
	if a.opts.FullScan {
		for s := 0; s < topo.NumSwitches(); s++ {
			if a.net.SwitchUp(topology.SwitchID(s)) {
				out = append(out, topology.SwitchID(s))
			}
		}
		return out
	}
	for c := 0; c < topo.Cfg.Containers; c++ {
		best := topology.SwitchID(-1)
		bestScore := math.Inf(1)
		for i := 0; i < topo.Cfg.ToRsPerContainer; i++ {
			tor := topo.TorID(c, i)
			if !a.net.SwitchUp(tor) {
				continue
			}
			score := float64(a.memUsed[tor]) / float64(a.opts.MemCapacity)
			for _, nb := range topo.Neighbors[tor] {
				for _, dir := range []netsim.DirLink{netsim.Forward(nb.Link), netsim.Reverse(nb.Link)} {
					if u := a.loads[dir] / a.effCap[dir]; u > score {
						score = u
					}
				}
			}
			if score < bestScore {
				best, bestScore = tor, score
			}
		}
		if best >= 0 {
			out = append(out, best)
		}
	}
	for c := 0; c < topo.Cfg.Containers; c++ {
		for j := 0; j < topo.Cfg.AggsPerContainer; j++ {
			if s := topo.AggID(c, j); a.net.SwitchUp(s) {
				out = append(out, s)
			}
		}
	}
	for i := 0; i < topo.Cfg.Cores; i++ {
		if s := topo.CoreID(i); a.net.SwitchUp(s) {
			out = append(out, s)
		}
	}
	return out
}

// vipOrder returns VIP indices sorted by decreasing epoch rate, then index
// (rates are not NaN), and an empty buffer with room for every index: the
// half of the sort's buffer that does not hold the order. It is a stable LSD
// radix sort on rateKey, which is ascending where rates descend, from the
// index order, so equal rates stay in index order.
func vipOrder(w *workload.Workload, epoch int) (order, spare []int) {
	rates := w.Rates[epoch]
	n := len(rates)
	buf := make([]int, 2*n)
	order, spare = buf[:n:n], buf[n:]
	if n == 0 {
		return order, spare
	}
	var hist [8][256]int // hist[p][b]: keys whose byte p is b
	for i, r := range rates {
		k := rateKey(r)
		for p := range hist {
			hist[p][byte(k>>(8*p))]++
		}
		order[i] = i
	}
	src, dst := order, spare
	first := rateKey(rates[0])
	for p := range hist {
		h := &hist[p]
		if h[byte(first>>(8*p))] == n {
			continue // every key has the same byte p
		}
		sum := 0
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, vi := range src {
			b := byte(rateKey(rates[vi]) >> (8 * p))
			dst[h[b]] = vi
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &order[0] {
		copy(order, src)
	}
	return order, spare[:0]
}

// rateKey maps a rate to a key that orders as the rate does in reverse: the
// IEEE bits with every bit of a negative number flipped, or only the sign
// bit of a positive one, order as the numbers do; their complement orders in
// reverse. -0 is keyed as +0, which it equals.
func rateKey(r float64) uint64 {
	if r == 0 {
		r = 0
	}
	b := math.Float64bits(r)
	if b>>63 != 0 {
		return b
	}
	return ^b &^ (1 << 63)
}

// Compute runs a from-scratch assignment (the Non-sticky / One-time basis).
func Compute(net *netsim.Network, work *workload.Workload, epoch int, opts Options) (*Assignment, error) {
	return computeInternal(net, work, epoch, opts, nil)
}

// ComputeSticky runs the Sticky variant of §4.2: starting from prev, a VIP
// moves to a new switch only if that reduces its MRU by more than
// opts.Delta. VIPs keep their feasible current placement otherwise.
func ComputeSticky(net *netsim.Network, work *workload.Workload, epoch int, prev *Assignment, opts Options) (*Assignment, error) {
	if prev == nil {
		return Compute(net, work, epoch, opts)
	}
	return computeInternal(net, work, epoch, opts, prev.SwitchOf)
}

func computeInternal(net *netsim.Network, work *workload.Workload, epoch int, opts Options, prev []int32) (*Assignment, error) {
	opts = opts.withDefaults()
	if prev != nil && len(prev) != len(work.VIPs) {
		return nil, fmt.Errorf("assign: previous assignment covers %d VIPs, workload has %d", len(prev), len(work.VIPs))
	}
	a, order, err := newRound(net, work, epoch, opts)
	if err != nil {
		return nil, err
	}
	a.res.Rescanned = len(work.VIPs)
	for _, vi := range order {
		a.res.TotalRate += work.Rates[epoch][vi]
		sticky := Unassigned
		if prev != nil {
			sticky = prev[vi]
		}
		a.place(vi, sticky)
	}
	return a.finish(), nil
}

// place runs one VIP through the switch tier's greedy placement (§4.1) and,
// when no switch takes it, offers it to the NIC tier. sticky is the VIP's
// previous switch under the Sticky rule of §4.2, or Unassigned.
func (a *assigner) place(vi int, sticky int32) {
	v := &a.work.VIPs[vi]
	rate := a.work.Rates[a.ep][vi]
	// The NIC tier absorbs VIPs the switch tier rejects — including after
	// the §4.1 termination, which only stops *switch* placement, and VIPs
	// with more DIPs than a tunneling table (those need TIP indirection on a
	// switch; the NIC table may still hold them whole).
	if a.terminated || v.NumDIPs() > a.opts.MemCapacity || a.res.NumAssigned >= a.opts.MaxHMuxVIPs {
		a.placeNMux(vi, v, rate)
		return
	}
	a.loadDIPRacks(v)
	best, bestMRU := a.scan(v, rate)

	// Sticky: prefer the previous placement unless the improvement
	// exceeds Delta.
	if sticky != Unassigned {
		sc := topology.SwitchID(sticky)
		scMRU, scFeasible := a.evaluate(v, rate, sc)
		if scFeasible && (best < 0 || scMRU-bestMRU <= a.opts.Delta) {
			best = sc
		}
	}

	if best < 0 {
		if !a.opts.ContinueOnFail {
			a.terminated = true
		}
		a.placeNMux(vi, v, rate)
		return
	}
	a.placeHMux(vi, a.commit(v, rate, best), best, rate)
}

// scan returns the feasible switch for v under the round's strategy and its
// score, or -1 when none fits.
func (a *assigner) scan(v *workload.VIP, rate float64) (best topology.SwitchID, bestMRU float64) {
	best, bestMRU = -1, math.Inf(1)
	if a.opts.Strategy == Random {
		// First-feasible over a fixed random order (FFD flavour, Figure
		// 18's baseline): VIPs pile onto the earliest switches in the
		// permutation, oblivious to resource utilization.
		if a.randomOrder == nil {
			a.randomOrder = a.rng.Perm(a.net.Topo.NumSwitches())
		}
		for _, si := range a.randomOrder {
			s := topology.SwitchID(si)
			if mru, feasible := a.evaluate(v, rate, s); feasible {
				return s, mru
			}
		}
		return best, bestMRU
	}
	// The probe table settles most candidates with evaluate's own first two
	// tests: the table usage, in integers (which decide as evaluate's
	// quotient does for any table below 2^53 entries), and the Internet term
	// at its hint, summed and compared as fitsAtHint does.
	nd, memCap := v.NumDIPs(), a.opts.MemCapacity
	hasInet, r := v.InternetFrac > 0, rate*v.InternetFrac
	ties := 0
	for i, s := range a.candidates() {
		p := &a.probes[i]
		if !p.fresh {
			a.fillProbe(p, s)
		}
		if p.mem+nd > memCap {
			continue
		}
		if hasInet && p.load+r*p.frac > p.cap {
			a.probeRejects++
			continue
		}
		mru, feasible := a.evaluate(v, rate, s)
		p.fresh = false // its walks may have moved the hint
		if !feasible {
			continue
		}
		switch {
		case mru < bestMRU-1e-12:
			best, bestMRU = s, mru
			ties = 1
		case mru <= bestMRU+1e-12:
			// Break ties at random (reservoir sampling).
			ties++
			if a.rng.Intn(ties) == 0 {
				best = s
			}
		}
	}
	return best, bestMRU
}

// placeHMux records VIP vi on switch s; vec is its applied contribution.
func (a *assigner) placeHMux(vi int, vec []netsim.LinkFrac, s topology.SwitchID, rate float64) {
	a.st.contrib[vi] = vec
	a.res.SwitchOf[vi] = int32(s)
	a.res.TierOf[vi] = TierHMux
	a.res.NumAssigned++
	a.res.AssignedRate += rate
}

// placeNMux records VIP vi on the NIC tier if the entry budget admits it;
// otherwise it stays on the SMux backstop. It reports whether it was admitted.
func (a *assigner) placeNMux(vi int, v *workload.VIP, rate float64) bool {
	if !a.pool.admit(v) {
		return false
	}
	a.res.TierOf[vi] = TierNMux
	a.res.NumNMux++
	a.res.NMuxRate += rate
	a.res.NMuxEntriesUsed = a.pool.used
	return true
}
