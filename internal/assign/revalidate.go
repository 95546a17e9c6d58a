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
	opts = opts.withDefaults()
	if epoch < 0 || epoch >= work.NumEpochs() {
		return nil, fmt.Errorf("assign: epoch %d out of range", epoch)
	}
	if len(placement) != len(work.VIPs) {
		return nil, fmt.Errorf("assign: placement covers %d VIPs, workload has %d", len(placement), len(work.VIPs))
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
	order, _ := vipOrder(work, epoch)
	for _, vi := range order {
		v := &work.VIPs[vi]
		rate := work.Rates[epoch][vi]
		res.TotalRate += rate
		s := placement[vi]
		if s == Unassigned {
			continue
		}
		a.loadDIPRacks(v)
		if _, feasible := a.evaluate(v, rate, topology.SwitchID(s)); !feasible {
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
