// Incremental assignment: the per-epoch recompute the scaled-out control
// plane runs (ROADMAP "Control-plane scale-out"). Duet reprograms the fleet
// every 10-minute traffic epoch (§5), but between consecutive epochs only a
// small fraction of VIPs change rate or DIP set — recomputing the greedy
// placement from scratch is O(VIPs × candidates) of wasted work. ComputeDelta
// re-prices only the VIPs whose inputs changed; computeFrom is the same
// algorithm with every per-VIP computation redone from scratch, and the two
// are equal by construction (property-tested in delta_test.go):
//
//   - Both run the identical two-pass "stable" placement below over the
//     identical dirty set; the ONLY difference is that ComputeDelta reuses
//     cached contribution vectors for clean VIPs while computeFrom rebuilds
//     them from the unit-flow caches.
//   - A contribution vector is a deterministic function of (rate, DIP rack
//     vector, network failure epoch) — see assigner.contribution — so the
//     cached and rebuilt vectors are bit-for-bit identical, and every
//     downstream float summation happens in the same order with the same
//     values. Equal inputs, equal code path, equal outputs.
//
// The stable placement itself is the Sticky rule of §4.2 taken to its
// fixpoint, in two passes over the decreasing-rate VIP order:
//
//	pass 1 (keep): every VIP keeps its previous home if still feasible —
//	  HMux VIPs re-apply their contribution to the (possibly changed) fabric
//	  and stay unless the switch is down, memory/table capacity shrank, a
//	  path became unroutable, or a touched link would exceed capacity; NIC
//	  VIPs re-admit against the (possibly shrunk) entry budget; clean SMux
//	  VIPs stay on the backstop.
//	pass 2 (place): evicted VIPs, plus changed VIPs without a hardware
//	  home, go through the ordinary greedy candidate scan of §4.1 —
//	  including its termination rule and the NIC-tier fall-through.
//
// Pass 1 is O(VIPs) cheap vector adds; pass 2 is the expensive candidate
// scan but runs only over O(changed VIPs). Assignment.Rescanned reports the
// actual number of re-priced VIPs so tests can assert the bound.
package assign

import (
	"fmt"
	"math"

	"duet/internal/netsim"
	"duet/internal/topology"
	"duet/internal/workload"
)

// deltaState is the incremental cache an Assignment carries: the fingerprint
// of the inputs it was computed from plus the committed contribution vector
// of every HMux-placed VIP.
type deltaState struct {
	epoch    int
	netEpoch uint64    // netsim failure-state generation the flows were routed under
	rates    []float64 // snapshot of work.Rates[epoch]
	sigs     []uint64  // per-VIP fingerprint of DIP racks / source racks / internet share
	contrib  [][]netsim.LinkFrac
}

func newDeltaState(net *netsim.Network, work *workload.Workload, epoch int) *deltaState {
	rates := make([]float64, len(work.VIPs))
	copy(rates, work.Rates[epoch])
	sigs := make([]uint64, len(work.VIPs))
	for i := range work.VIPs {
		sigs[i] = vipSig(&work.VIPs[i])
	}
	return &deltaState{
		epoch:    epoch,
		netEpoch: net.Epoch(),
		rates:    rates,
		sigs:     sigs,
		contrib:  make([][]netsim.LinkFrac, len(work.VIPs)),
	}
}

// vipSig fingerprints the placement-relevant shape of a VIP (everything a
// contribution vector depends on besides the rate and the network state):
// DIP racks, source racks and weights, and the Internet share. FNV-1a over
// the raw words — change detection, not cryptography.
func vipSig(v *workload.VIP) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	mix(uint64(len(v.DIPRacks)))
	for _, r := range v.DIPRacks {
		mix(uint64(r))
	}
	mix(uint64(len(v.SrcRacks)))
	for _, sw := range v.SrcRacks {
		mix(uint64(sw.Rack))
		mix(math.Float64bits(sw.Weight))
	}
	mix(math.Float64bits(v.InternetFrac))
	return h
}

// Orphan moves VIP i to the SMux tier in a — the cluster refused its
// placement, or a DIP change took it off its switch — and marks it changed in
// a's incremental cache, so the next ComputeDelta re-places it as the next
// ComputeSticky does, even when its rate and DIP racks did not change.
func (a *Assignment) Orphan(i int) {
	a.SwitchOf[i] = Unassigned // already so for a NIC-tier VIP
	a.TierOf[i] = TierSMux
	if a.delta != nil {
		// NaN equals no rate, so the dirty test reads the VIP as changed on
		// both engine paths, which share it.
		a.delta.rates[i] = math.NaN()
	}
}

// computeFrom runs the stable placement from scratch: every VIP's flow
// vectors are rebuilt, but previous feasible homes are kept (pass 1) and
// only changed/evicted VIPs are greedily re-placed (pass 2). It is the
// reference ComputeDelta is property-tested against — same decisions, no
// reliance on the cache. A nil base degenerates to Compute.
func computeFrom(net *netsim.Network, work *workload.Workload, epoch int, base *Assignment, opts Options) (*Assignment, error) {
	return computeStable(net, work, epoch, base, opts, false)
}

// ComputeDelta is the incremental per-epoch recompute: starting from prev it
// re-places only the VIPs whose load, DIP set, or feasibility changed,
// reusing prev's cached contribution vectors for everything else. The result
// equals computeFrom(prev) bit for bit (see the package comment for why, and
// delta_test.go for the property test), at O(changed VIPs) candidate-scan
// cost instead of O(VIPs).
//
// prev must come from a compute path over the same workload and the same
// netsim.Network; if it carries no usable cache (nil, Revalidate output, or
// the network failure epoch moved) every VIP is treated as changed and the
// call costs the same as computeFrom.
func ComputeDelta(net *netsim.Network, work *workload.Workload, epoch int, prev *Assignment, opts Options) (*Assignment, error) {
	return computeStable(net, work, epoch, prev, opts, true)
}

func computeStable(net *netsim.Network, work *workload.Workload, epoch int, base *Assignment, opts Options, useCache bool) (*Assignment, error) {
	opts = opts.withDefaults()
	if base == nil {
		return computeInternal(net, work, epoch, opts, nil)
	}
	if len(base.SwitchOf) != len(work.VIPs) || len(base.TierOf) != len(work.VIPs) {
		return nil, fmt.Errorf("assign: base assignment covers %d VIPs, workload has %d", len(base.SwitchOf), len(work.VIPs))
	}
	a, order, err := newRound(net, work, epoch, opts)
	if err != nil {
		return nil, err
	}
	res, st := a.res, a.st

	cache := base.delta
	// The dirty predicate must not depend on useCache: computeFrom and
	// ComputeDelta have to agree on WHICH VIPs get re-placed, or their
	// pass-2 sets (and rng draws) would diverge. useCache only decides
	// whether a clean VIP's contribution vector is reused or rebuilt.
	dirtyAll := cache == nil || cache.netEpoch != st.netEpoch || len(cache.rates) != len(work.VIPs)
	isDirty := func(vi int) bool {
		return dirtyAll || cache.rates[vi] != st.rates[vi] || cache.sigs[vi] != st.sigs[vi]
	}
	cacheOK := useCache && !dirtyAll

	// Pass 1 — keep feasible homes, heaviest first.
	pending := a.pending
	for _, vi := range order {
		v := &work.VIPs[vi]
		rate := st.rates[vi]
		res.TotalRate += rate
		dirty := isDirty(vi)
		switch base.TierOf[vi] {
		case TierHMux:
			s := topology.SwitchID(base.SwitchOf[vi])
			nd := v.NumDIPs()
			if net.SwitchUp(s) && nd <= opts.MemCapacity &&
				a.memUsed[s]+nd <= opts.MemCapacity &&
				res.NumAssigned < opts.MaxHMuxVIPs {
				var vec []netsim.LinkFrac
				ok := false
				if cacheOK && !dirty && cache.contrib[vi] != nil {
					vec, ok = cache.contrib[vi], true
				} else {
					a.loadDIPRacks(v)
					vec, ok = a.contribution(v, rate, s)
					res.Rescanned++
				}
				if ok && a.vecFeasible(vec) {
					a.commitVec(vec, s, nd)
					a.placeHMux(vi, vec, s, rate)
					continue
				}
			}
			pending = append(pending, vi)
		case TierNMux:
			// Re-admission reprices the (possibly changed) wildcard cost
			// against the (possibly shrunk) budget.
			if !a.placeNMux(vi, v, rate) {
				pending = append(pending, vi)
			}
		default: // TierSMux
			// A changed backstop VIP gets a fresh shot at the hardware
			// tiers; clean ones stay put (§4.2 stickiness across tiers —
			// the periodic from-scratch Compute rebalances the rest).
			if dirty {
				pending = append(pending, vi)
			}
		}
	}

	// Pass 2 — ordinary greedy placement (§4.1 semantics, including the
	// termination rule) over the evicted/changed leftovers only.
	for _, vi := range pending {
		res.Rescanned++
		a.place(vi, Unassigned)
	}
	return a.finish(), nil
}
