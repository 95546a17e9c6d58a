package assign

import (
	"fmt"

	"duet/internal/netsim"
	"duet/internal/topology"
	"duet/internal/workload"
)

// SMuxRacks picks n racks to host SMuxes, striped across containers so the
// backstop capacity survives a container failure (the paper co-locates
// SMuxes with servers throughout the DC).
func SMuxRacks(topo *topology.Topology, n int) []int {
	if n <= 0 {
		return nil
	}
	racks := topo.NumRacks()
	out := make([]int, 0, n)
	perC := topo.Cfg.ToRsPerContainer
	for i := 0; i < n; i++ {
		c := i % topo.Cfg.Containers
		r := c*perC + (i/topo.Cfg.Containers)%perC
		out = append(out, r%racks)
	}
	return out
}

// FullLoads computes the complete directed-link load map for an assignment:
// HMux-assigned VIPs route to their switches, while unassigned VIPs — plus
// VIPs whose switch is currently down (failure scenarios, §8.5) — are ECMP-
// spread across the SMuxes. Traffic sourced or sunk in failed domains has
// vanished and is skipped.
func FullLoads(net *netsim.Network, work *workload.Workload, epoch int, asg *Assignment, smuxRacks []int) (netsim.Loads, error) {
	if epoch < 0 || epoch >= work.NumEpochs() {
		return nil, fmt.Errorf("assign: epoch %d out of range", epoch)
	}
	loads := net.NewLoads()
	add := func(vec netsim.Vec, r float64) bool {
		for _, lf := range vec.Links() {
			loads[lf.Dir] += r * lf.Frac
		}
		return true
	}

	// Live SMux locations.
	var liveSMux []topology.SwitchID
	for _, r := range smuxRacks {
		if s := net.Topo.Rack(r); net.SwitchUp(s) {
			liveSMux = append(liveSMux, s)
		}
	}

	for vi := range work.VIPs {
		v := &work.VIPs[vi]
		rate := work.Rates[epoch][vi]
		if rate == 0 {
			continue
		}
		dipRacks := dipRackWeights(v)

		s := topology.SwitchID(Unassigned)
		if asg != nil && asg.SwitchOf[vi] != Unassigned {
			s = topology.SwitchID(asg.SwitchOf[vi])
		}
		if s >= 0 && net.SwitchUp(s) {
			visitFlowVecs(net, v, rate, s, dipRacks, add)
			continue
		}
		// SMux-handled (unassigned, or its HMux is down): the VIP's traffic
		// ECMP-splits across all live SMuxes.
		if len(liveSMux) == 0 {
			continue
		}
		share := rate / float64(len(liveSMux))
		for _, sm := range liveSMux {
			visitFlowVecs(net, v, share, sm, dipRacks, add)
		}
	}
	return loads, nil
}

// ShuffledRate returns the total traffic of VIPs whose placement differs
// between two assignments — the traffic that transits the SMux stepping
// stone during migration (Figure 20b's metric).
func ShuffledRate(prev, next *Assignment, rates []float64) float64 {
	if prev == nil || next == nil {
		return 0
	}
	var sum float64
	for vi := range rates {
		if prev.SwitchOf[vi] != next.SwitchOf[vi] {
			sum += rates[vi]
		}
	}
	return sum
}
