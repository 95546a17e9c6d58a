// Package controller implements the Duet controller (paper §6, Figure 9):
// datacenter monitoring feeds the Duet engine (the VIP assignment algorithm
// of internal/assign), and the assignment updater translates the engine's
// decisions into switch-agent and SMux operations — always migrating VIPs
// through the SMux stepping stone so no make-before-break memory deadlock
// can occur (§4.2, Figure 4).
package controller

import (
	"cmp"
	"fmt"
	"slices"

	"duet/internal/assign"
	"duet/internal/core"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/telemetry"
	"duet/internal/topology"
	"duet/internal/workload"
)

// Controller drives a cluster from a workload trace.
type Controller struct {
	Cluster *core.Cluster
	Opts    assign.Options

	prev    *assign.Assignment
	indexOf map[packet.Addr]int // VIP addr → workload index
	snat    *SNATRanges         // §5.2 SNAT port-range allocator

	tel ctlTelemetry
}

// ctlTelemetry holds the controller's instrument handles (all nil-safe).
type ctlTelemetry struct {
	epochs, moves         telemetry.CounterShard
	dipAdds, dipRemoves   telemetry.CounterShard
	healthRemovals        telemetry.CounterShard
	switchFailuresHandled telemetry.CounterShard
	placeRefused          telemetry.CounterShard
	rec                   *telemetry.Recorder
}

// SetTelemetry attaches the controller to a metric registry and flight
// recorder; trace events carry the recorder's clock (the testbed's virtual
// time when it injected one).
func (ct *Controller) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	ct.tel = ctlTelemetry{
		epochs:                reg.Counter("controller.epochs").Shard(),
		moves:                 reg.Counter("controller.moves").Shard(),
		dipAdds:               reg.Counter("controller.dip_adds").Shard(),
		dipRemoves:            reg.Counter("controller.dip_removes").Shard(),
		healthRemovals:        reg.Counter("controller.health_removals").Shard(),
		switchFailuresHandled: reg.Counter("controller.switch_failures_handled").Shard(),
		placeRefused:          reg.Counter("controller.place_refused").Shard(),
		rec:                   rec,
	}
}

// New creates a controller over a cluster.
func New(c *core.Cluster, opts assign.Options) *Controller {
	return &Controller{
		Cluster: c,
		Opts:    opts,
		indexOf: make(map[packet.Addr]int),
	}
}

// Previous returns the last computed assignment (nil before the first
// epoch).
func (ct *Controller) Previous() *assign.Assignment { return ct.prev }

// SyncVIPs configures every workload VIP on the cluster (landing on the
// SMuxes, per §5.2 "VIP addition") as one Place batch, generating nDIPs
// backend addresses per VIP with mkBackend. Pass a small cap to keep table
// programming cheap in examples; the assignment algorithm still sees the
// true DIP counts from the workload.
func (ct *Controller) SyncVIPs(w *workload.Workload, maxBackends int, mkBackend func(vip int, dip int) packet.Addr) error {
	if mkBackend == nil {
		mkBackend = func(vip, dip int) packet.Addr {
			return packet.AddrFrom4(100, byte(vip>>8), byte(vip), byte(dip+1))
		}
	}
	var ts []core.Target
	for i := range w.VIPs {
		v := &w.VIPs[i]
		ct.indexOf[v.Addr] = i
		if _, ok := ct.Cluster.VIP(v.Addr); ok {
			continue
		}
		n := v.NumDIPs()
		if maxBackends > 0 {
			n = min(n, maxBackends)
		}
		backends := make([]service.Backend, n)
		for d := 0; d < n; d++ {
			backends[d] = service.Backend{Addr: mkBackend(i, d), Weight: 1}
		}
		ts = append(ts, core.Target{Addr: v.Addr, VIP: &service.VIP{Addr: v.Addr, Backends: backends}})
	}
	ct.Cluster.Place(ts...)
	for _, t := range ts {
		if t.Err != nil {
			return fmt.Errorf("controller: add VIP %s: %w", t.Addr, t.Err)
		}
	}
	return nil
}

// EpochReport summarizes one controller cycle.
type EpochReport struct {
	Epoch            int
	AssignedFraction float64
	NumAssigned      int
	// NumNMux and NMuxFraction cover the NIC tier (zero when disabled).
	NumNMux      int
	NMuxFraction float64
	Moved        int
	ShuffledRate float64
	MRU          float64
	// Refused counts the VIPs the cluster would not place: they stay on the
	// SMux tier, and the next epoch retries them.
	Refused int
}

// RunEpoch runs one monitoring→engine→updater cycle for trace epoch e:
// computes the (sticky) assignment and migrates every moved VIP through the
// SMux stepping stone.
func (ct *Controller) RunEpoch(w *workload.Workload, epoch int) (EpochReport, error) {
	next, err := assign.ComputeSticky(ct.Cluster.Net, w, epoch, ct.prev, ct.Opts)
	if err != nil {
		return EpochReport{}, err
	}
	return ct.applyEpoch(w, epoch, next), nil
}

// RunEpochDelta is RunEpoch on the incremental engine: assign.ComputeDelta
// re-places only the VIPs whose load, DIP set, or feasibility changed since
// the previous epoch, so steady-state epochs cost O(changed VIPs) instead
// of O(VIPs). The updater half is identical — the engine's output contract
// (equal to a from-scratch stable compute) is what makes them
// interchangeable mid-run.
func (ct *Controller) RunEpochDelta(w *workload.Workload, epoch int) (EpochReport, error) {
	next, err := assign.ComputeDelta(ct.Cluster.Net, w, epoch, ct.prev, ct.Opts)
	if err != nil {
		return EpochReport{}, err
	}
	return ct.applyEpoch(w, epoch, next), nil
}

// applyEpoch is the updater half of an epoch cycle: every VIP whose tier or
// switch moved since the previous assignment is a target of one
// Cluster.Place, which migrates through the SMux stepping stone, so no switch
// or NIC holds old and new state at once (no Figure 4 deadlock). A target
// carries no mode: a VIP's mode is its config, and an epoch leaves it as it
// was. A refused VIP is orphaned in next, the next epoch's previous
// assignment, so either engine path retries it.
func (ct *Controller) applyEpoch(w *workload.Workload, epoch int, next *assign.Assignment) EpochReport {
	rep := EpochReport{
		Epoch:            epoch,
		AssignedFraction: next.AssignedFraction(),
		NumAssigned:      next.NumAssigned,
		NumNMux:          next.NumNMux,
		NMuxFraction:     next.NMuxFraction(),
		MRU:              next.MRU,
		ShuffledRate:     assign.ShuffledRate(ct.prev, next, w.Rates[epoch]),
	}
	prev := ct.prev // nil before the first epoch: every VIP on the SMux tier
	moved := func(i int) bool {
		if prev == nil {
			return next.TierOf[i] != assign.TierSMux
		}
		return prev.SwitchOf[i] != next.SwitchOf[i] || prev.TierOf[i] != next.TierOf[i]
	}

	var ts []core.Target
	var vipOf []int // the workload index of each target
	for i := range w.VIPs {
		if !moved(i) {
			continue
		}
		t := core.Target{Addr: w.VIPs[i].Addr, NIC: next.TierOf[i] == assign.TierNMux}
		if next.TierOf[i] == assign.TierHMux {
			t.Switches = []topology.SwitchID{topology.SwitchID(next.SwitchOf[i])}
		}
		ts, vipOf = append(ts, t), append(vipOf, i)
		rep.Moved++
		ct.tel.moves.Inc()
		if prev != nil && prev.TierOf[i] != assign.TierSMux {
			// Migration step 1: traffic falls back to the SMux stepping stone.
			ct.tel.rec.Record(telemetry.KindMigrationStep, uint32(epoch), uint32(t.Addr), uint32(prev.SwitchOf[i]), 1)
		}
	}
	ct.Cluster.Place(ts...)
	for k, t := range ts {
		i := vipOf[k]
		switch {
		case t.Err != nil:
			// A table fuller than the engine's model of it: the VIP stays on
			// the stepping stone. Step 0 marks the refusal.
			rep.Refused++
			ct.tel.placeRefused.Inc()
			ct.tel.rec.Record(telemetry.KindMigrationStep, uint32(epoch), uint32(t.Addr), uint32(next.SwitchOf[i]), 0)
			next.Orphan(i)
		case next.TierOf[i] != assign.TierSMux:
			// Migration step 2: the VIP's new home is announced/programmed.
			ct.tel.rec.Record(telemetry.KindMigrationStep, uint32(epoch), uint32(t.Addr), uint32(next.SwitchOf[i]), 2)
		}
	}
	ct.prev = next
	ct.tel.epochs.Inc()
	return rep
}

// AddDIP grows a VIP's backend set (§5.2 "DIP addition") in one Place call.
// A VIP on an HMux leaves its switches in the same batch, so the SMuxes'
// connection state masks the hash change; the next epoch, RunEpoch or
// RunEpochDelta alike, migrates it back. A NIC-hosted VIP updates in place —
// its pinned flows keep their DIPs, as the SMuxes' do — unless the grown set
// no longer fits the NIC tables: then it leaves that tier, and the next epoch
// re-places it; not an error here.
func (ct *Controller) AddDIP(vip packet.Addr, b service.Backend) error {
	v, ok := ct.Cluster.VIP(vip)
	if !ok {
		return core.ErrVIPUnknown
	}
	grown := *v
	grown.Backends = append(slices.Clone(v.Backends), b)
	onHMux, onNIC := len(ct.Cluster.Replicas(vip)) > 0, ct.Cluster.NMuxHosted(vip)
	ts := []core.Target{{Addr: vip, VIP: &grown, NIC: onNIC}}
	ct.Cluster.Place(ts...)
	refused := onNIC && !ct.Cluster.NMuxHosted(vip)
	if err := ts[0].Err; err != nil && !refused {
		return err
	}
	if onHMux || refused {
		ct.orphan(vip)
	}
	ct.tel.dipAdds.Inc()
	return nil
}

// orphan marks a VIP SMux-served, and changed, in the previous assignment
// (assign.Assignment.Orphan), so the next epoch re-places it on either
// engine path, RunEpoch's or RunEpochDelta's.
func (ct *Controller) orphan(vip packet.Addr) {
	if i, ok := ct.indexOf[vip]; ok && ct.prev != nil {
		ct.prev.Orphan(i)
	}
}

// RemoveDIP shrinks a VIP's backend set in place (§5.2 "DIP removal" /
// §5.1 "DIP failure"): resilient hashing on every mux type keeps surviving
// connections intact; connections to the removed DIP are terminated.
func (ct *Controller) RemoveDIP(vip, dip packet.Addr) error {
	_, err := ct.removeDIPs([][2]packet.Addr{{vip, dip}})
	return err
}

// HealthSweep polls every backend's host agent and removes the DIPs reported
// unhealthy (§6: the controller receives VIP health from the host agents),
// all as one Place batch. It returns the removed (vip, dip) pairs.
func (ct *Controller) HealthSweep() ([][2]packet.Addr, error) {
	var sick [][2]packet.Addr
	for _, vip := range ct.Cluster.VIPs() {
		v, _ := ct.Cluster.VIP(vip)
		for _, b := range v.Backends {
			if agent, ok := ct.Cluster.Agent(b.Addr); ok && !agent.Healthy(b.Addr) {
				sick = append(sick, [2]packet.Addr{vip, b.Addr})
			}
		}
	}
	removed, err := ct.removeDIPs(sick)
	for _, r := range removed {
		ct.tel.healthRemovals.Inc()
		ct.tel.rec.Record(telemetry.KindHealthTransition, 0, uint32(r[1]), 0, 0)
	}
	return removed, err
}

// removeDIPs takes each (VIP, DIP) pair's DIP out of its VIP — its first
// listing left; a VIP's pairs adjacent — as one Place batch, every VIP
// staying where it is, and releases each removed DIP's SNAT ranges. It
// returns the pairs whose VIP took the change, and the first error.
func (ct *Controller) removeDIPs(pairs [][2]packet.Addr) ([][2]packet.Addr, error) {
	var ts []core.Target
	for _, p := range pairs {
		if len(ts) == 0 || ts[len(ts)-1].Addr != p[0] {
			v, ok := ct.Cluster.VIP(p[0])
			if !ok {
				return nil, core.ErrVIPUnknown
			}
			cp := *v
			cp.Backends = slices.Clone(v.Backends)
			ts = append(ts, core.Target{Addr: p[0], VIP: &cp, Stay: true})
		}
		v := ts[len(ts)-1].VIP
		i := slices.IndexFunc(v.Backends, func(b service.Backend) bool { return b.Addr == p[1] })
		if i < 0 {
			return nil, fmt.Errorf("controller: %s is not a backend of VIP %s", p[1], p[0])
		}
		v.Backends = slices.Delete(v.Backends, i, i+1)
	}
	ct.Cluster.Place(ts...)
	var removed [][2]packet.Addr
	var err error
	for _, p := range pairs {
		if t := ts[slices.IndexFunc(ts, func(t core.Target) bool { return t.Addr == p[0] })]; t.Err != nil {
			err = cmp.Or(err, t.Err)
			continue
		}
		ct.ReleaseSNATRanges(p[0], p[1])
		ct.tel.dipRemoves.Inc()
		removed = append(removed, p)
	}
	return removed, err
}

// HandleSwitchFailure reacts to an HMux failure (§5.1): the fabric withdraws
// its routes (Cluster.FailSwitch, which also stops the switch unless
// StopSwitch already did) and the controller marks its VIPs SMux-hosted so
// the next epoch re-places them.
func (ct *Controller) HandleSwitchFailure(sw topology.SwitchID) {
	ct.Cluster.FailSwitch(sw)
	ct.tel.switchFailuresHandled.Inc()
	orphaned := uint64(0)
	if ct.prev != nil {
		for i, s := range ct.prev.SwitchOf {
			if s == int32(sw) {
				ct.prev.Orphan(i)
				orphaned++
			}
		}
	}
	ct.tel.rec.Record(telemetry.KindControllerReact, uint32(sw), 0, 0, orphaned)
}
