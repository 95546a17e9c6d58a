package assign

import (
	"fmt"

	"duet/internal/netsim"
	"duet/internal/topology"
	"duet/internal/workload"
)

// Revalidate scores a FIXED placement against a different epoch's traffic
// (the One-time baseline of Figure 20a): VIPs are re-committed to their
// original switches in decreasing-rate order; a VIP whose placement now
// violates a link or memory constraint counts as SMux-handled — its traffic
// would congest the stale placement, so the backstop must absorb it.
func Revalidate(net *netsim.Network, work *workload.Workload, epoch int, placement []int32, opts Options) (*Assignment, error) {
	return revalidateTiers(net, work, epoch, placement, nil, opts)
}

// revalidateAssignment is the three-tier variant of Revalidate: it re-admits
// a full prior Assignment (both its HMux homes and its NIC-tier residents)
// under possibly changed capacities. A tier that lost capacity mid-epoch —
// a shrunk MemCapacity or NMuxTableSize — evicts its overflow downward in
// decreasing-rate order: HMux VIPs that no longer fit fall to the NIC tier
// if it has room, NIC VIPs that no longer fit fall to the SMuxes, and no
// re-admission violates link headroom or the NIC headroom budget.
func revalidateAssignment(net *netsim.Network, work *workload.Workload, epoch int, prev *Assignment, opts Options) (*Assignment, error) {
	if prev == nil {
		return nil, fmt.Errorf("assign: revalidateAssignment needs a previous assignment")
	}
	return revalidateTiers(net, work, epoch, prev.SwitchOf, prev.TierOf, opts)
}

func revalidateTiers(net *netsim.Network, work *workload.Workload, epoch int, placement []int32, tiers []Tier, opts Options) (*Assignment, error) {
	opts = opts.withDefaults()
	if epoch < 0 || epoch >= work.NumEpochs() {
		return nil, fmt.Errorf("assign: epoch %d out of range", epoch)
	}
	if len(placement) != len(work.VIPs) {
		return nil, fmt.Errorf("assign: placement covers %d VIPs, workload has %d", len(placement), len(work.VIPs))
	}
	if tiers != nil && len(tiers) != len(work.VIPs) {
		return nil, fmt.Errorf("assign: tiers cover %d VIPs, workload has %d", len(tiers), len(work.VIPs))
	}
	a := newAssigner(net, work, epoch, opts)
	res := &Assignment{
		SwitchOf:  make([]int32, len(work.VIPs)),
		TierOf:    make([]Tier, len(work.VIPs)),
		MemUsed:   a.memUsed,
		Rescanned: len(work.VIPs),
	}
	for i := range res.SwitchOf {
		res.SwitchOf[i] = Unassigned
	}
	a.res, a.pool = res, newNMuxPool(opts)
	for _, vi := range vipOrder(work, epoch) {
		v := &work.VIPs[vi]
		rate := work.Rates[epoch][vi]
		res.TotalRate += rate
		s := placement[vi]
		if s == Unassigned {
			// Not on a switch before; NIC residents re-apply for their
			// (possibly shrunk) budget, SMux VIPs stay put.
			if tiers != nil && tiers[vi] == TierNMux {
				a.placeNMux(vi, v, rate)
			}
			continue
		}
		a.loadDIPRacks(v)
		if _, feasible := a.evaluate(v, rate, topology.SwitchID(s)); !feasible {
			// Evicted from the switch tier; fall downward.
			if tiers != nil {
				a.placeNMux(vi, v, rate)
			}
			continue
		}
		a.commit(v, rate, topology.SwitchID(s))
		res.SwitchOf[vi] = s
		res.TierOf[vi] = TierHMux
		res.NumAssigned++
		res.AssignedRate += rate
	}
	res.Loads = a.loads
	res.MRU = a.runMax
	return res, nil
}
