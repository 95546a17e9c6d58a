// Package controller implements the Duet controller (paper §6, Figure 9):
// datacenter monitoring feeds the Duet engine (the VIP assignment algorithm
// of internal/assign), and the assignment updater translates the engine's
// decisions into switch-agent and SMux operations — always migrating VIPs
// through the SMux stepping stone so no make-before-break memory deadlock
// can occur (§4.2, Figure 4).
package controller

import (
	"fmt"

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
	modeChanges           telemetry.CounterShard
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
		modeChanges:           reg.Counter("controller.mode_changes").Shard(),
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
// SMuxes, per §5.2 "VIP addition"), generating nDIPs backend addresses per
// VIP with mkBackend. Pass a small cap to keep table programming cheap in
// examples; the assignment algorithm still sees the true DIP counts from
// the workload.
func (ct *Controller) SyncVIPs(w *workload.Workload, maxBackends int, mkBackend func(vip int, dip int) packet.Addr) error {
	if mkBackend == nil {
		mkBackend = func(vip, dip int) packet.Addr {
			return packet.AddrFrom4(100, byte(vip>>8), byte(vip), byte(dip+1))
		}
	}
	for i := range w.VIPs {
		v := &w.VIPs[i]
		ct.indexOf[v.Addr] = i
		if _, ok := ct.Cluster.VIP(v.Addr); ok {
			continue
		}
		n := v.NumDIPs()
		if maxBackends > 0 && n > maxBackends {
			n = maxBackends
		}
		backends := make([]service.Backend, n)
		for d := 0; d < n; d++ {
			backends[d] = service.Backend{Addr: mkBackend(i, d), Weight: 1}
		}
		if err := ct.Cluster.AddVIP(&service.VIP{Addr: v.Addr, Backends: backends}); err != nil {
			return fmt.Errorf("controller: add VIP %s: %w", v.Addr, err)
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
	// ModeChanges counts VIPs whose SMux consistency mode flipped this
	// epoch under the Options.HybridRatePPS policy.
	ModeChanges int
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

// applyEpoch is the updater half of an epoch cycle: every VIP whose tier,
// switch or mode moved since the previous assignment is a target of one
// Cluster.Place, which migrates through the SMux stepping stone, so no switch
// or NIC holds old and new state at once (no Figure 4 deadlock). A refused VIP
// stays SMux-tier in next, the next epoch's previous assignment, to retry.
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
		if !moved(i) && prev != nil && prev.ModeOf[i] == next.ModeOf[i] {
			continue
		}
		t := core.Target{Addr: w.VIPs[i].Addr, NIC: next.TierOf[i] == assign.TierNMux, Mode: &next.ModeOf[i]}
		if next.TierOf[i] == assign.TierHMux {
			t.Switches = []topology.SwitchID{topology.SwitchID(next.SwitchOf[i])}
		}
		ts, vipOf = append(ts, t), append(vipOf, i)
		if !moved(i) {
			continue
		}
		rep.Moved++
		ct.tel.moves.Inc()
		if prev != nil && prev.TierOf[i] != assign.TierSMux {
			// Migration step 1: traffic falls back to the SMux stepping stone.
			ct.tel.rec.Record(telemetry.KindMigrationStep, uint32(epoch), uint32(t.Addr), uint32(prev.SwitchOf[i]), 1)
		}
	}
	rep.ModeChanges = ct.Cluster.Place(ts)
	ct.tel.modeChanges.Add(uint64(rep.ModeChanges))
	for k, t := range ts {
		i := vipOf[k]
		switch {
		case t.Err != nil:
			// A table fuller than the engine's model of it: the VIP stays on
			// the stepping stone. Step 0 marks the refusal.
			rep.Refused++
			ct.tel.placeRefused.Inc()
			ct.tel.rec.Record(telemetry.KindMigrationStep, uint32(epoch), uint32(t.Addr), uint32(next.SwitchOf[i]), 0)
			orphanIndex(next, i)
		case moved(i) && next.TierOf[i] != assign.TierSMux:
			// Migration step 2: the VIP's new home is announced/programmed.
			ct.tel.rec.Record(telemetry.KindMigrationStep, uint32(epoch), uint32(t.Addr), uint32(next.SwitchOf[i]), 2)
		}
	}
	ct.prev = next
	ct.tel.epochs.Inc()
	return rep
}

// AddDIP grows a VIP's backend set (§5.2 "DIP addition"): if the VIP lives
// on an HMux it is first withdrawn so the SMuxes' connection state masks the
// hash change; the next epoch migrates it back. The cluster then reprograms
// every tier that holds the VIP in one locked step.
func (ct *Controller) AddDIP(vip packet.Addr, b service.Backend) error {
	if _, onHMux := ct.Cluster.HomeOf(vip); onHMux {
		back := []core.Target{{Addr: vip}} // the SMux tier, mode kept
		ct.Cluster.Place(back)
		if back[0].Err != nil {
			return back[0].Err
		}
		ct.orphan(vip)
	}
	// A NIC-hosted VIP updates in place: the NIC's exact-match entries pin
	// existing connections just like the SMux connection table, so no
	// bounce through the stepping stone is needed. If the grown backend set
	// no longer fits the table, AddBackend withdraws the VIP from the tier
	// (the SMuxes keep serving it) — not an error here.
	onNIC := ct.Cluster.NMuxHosted(vip)
	if err := ct.Cluster.AddBackend(vip, b); err != nil {
		return err
	}
	if onNIC && !ct.Cluster.NMuxHosted(vip) {
		ct.orphan(vip)
	}
	ct.tel.dipAdds.Inc()
	return nil
}

// orphan marks a VIP SMux-served in the previous assignment, so the next
// epoch re-places it.
func (ct *Controller) orphan(vip packet.Addr) {
	if i, ok := ct.indexOf[vip]; ok && ct.prev != nil {
		orphanIndex(ct.prev, i)
	}
}

// orphanIndex marks VIP i SMux-served in a.
func orphanIndex(a *assign.Assignment, i int) {
	a.SwitchOf[i] = assign.Unassigned // already so for a NIC-tier VIP
	a.TierOf[i] = assign.TierSMux
}

// RemoveDIP shrinks a VIP's backend set in place (§5.2 "DIP removal" /
// §5.1 "DIP failure"): resilient hashing on every mux type keeps surviving
// connections intact; connections to the removed DIP are terminated.
func (ct *Controller) RemoveDIP(vip, dip packet.Addr) error {
	if err := ct.Cluster.RemoveBackend(vip, dip); err != nil {
		return err
	}
	ct.ReleaseSNATRanges(vip, dip)
	ct.tel.dipRemoves.Inc()
	return nil
}

// HealthSweep polls every backend's host agent and removes DIPs reported
// unhealthy (§6: the controller receives VIP health from the host agents).
// It returns the removed (vip, dip) pairs.
func (ct *Controller) HealthSweep() ([][2]packet.Addr, error) {
	var removed [][2]packet.Addr
	for _, vipAddr := range ct.Cluster.VIPs() {
		v, _ := ct.Cluster.VIP(vipAddr)
		for _, b := range v.Backends { // a snapshot: RemoveDIP below replaces the record
			agent, ok := ct.Cluster.Agent(b.Addr)
			if !ok || agent.Healthy(b.Addr) {
				continue
			}
			if err := ct.RemoveDIP(vipAddr, b.Addr); err != nil {
				return removed, err
			}
			ct.tel.healthRemovals.Inc()
			ct.tel.rec.Record(telemetry.KindHealthTransition, 0, uint32(b.Addr), 0, 0)
			removed = append(removed, [2]packet.Addr{vipAddr, b.Addr})
		}
	}
	return removed, nil
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
				orphanIndex(ct.prev, i)
				orphaned++
			}
		}
	}
	ct.tel.rec.Record(telemetry.KindControllerReact, uint32(sw), 0, 0, orphaned)
}
