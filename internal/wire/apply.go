package wire

// The receiver side of delta replication: every dataplane node keeps a
// delta.State mirror of the leader's config and reconciles only the VIPs an
// incoming delta touches into its role's tables. A snapshot push (the
// recovery path for a blank restart behind the compaction horizon) lands as
// its diff from the mirror, so it too reprograms exactly the VIPs whose
// config it changes. A VIP a table refused stays in the mirror and is
// retried when its config next changes.

import (
	"slices"

	"duet/internal/delta"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// handleLeader is a dataplane node's side of replication: a delta push from
// the leader, behind the leader fence (see fence). A push without a delta
// changes nothing; its ack is the applied-epoch probe that tells the leader
// what to ship. A push with one applies its delta to the mirror and
// reconciles the touched VIPs through the role's reconcile func; a snapshot
// is turned into its diff from the mirror first. The ack always carries the
// applied epoch: a gap rejection tells the leader exactly where this node
// stands, so it ships the missing range instead of the full config.
// delta.Apply is all-or-nothing, so a rejected push leaves the mirror, the
// epoch and the tables where they were and the leader's next push meets the
// state it expects.
func (n *Node) handleLeader(env, ack *Envelope, reconcile func(ds []delta.Op) error) error {
	n.cfgMu.Lock()
	defer n.cfgMu.Unlock()
	err := fence(env, ack, &n.leaderTerm, n.cfg.Epoch)
	if len(env.Delta) == 0 {
		return err
	}
	var d *delta.Delta
	if err == nil {
		d, err = delta.Decode(env.Delta)
	}
	if err == nil && d.Snapshot {
		snap := delta.NewState()
		if err = d.Apply(snap); err == nil {
			d = delta.Diff(n.cfg, snap)
		}
	}
	if err == nil {
		err = d.Apply(n.cfg)
	}
	if err != nil {
		n.deltaRejected.Inc()
		return err
	}
	ack.Epoch = n.cfg.Epoch
	n.deltaEpochG.Set(int64(n.cfg.Epoch))
	n.deltaApplied.Inc()
	return reconcile(d.Ops)
}

// reconcileSMux converges the SMux (and its NIC table, when present) on the
// mirror for the touched VIPs: one batch per table, so each publishes one
// generation per delta and a hybrid flow drains against the table as it
// stood before the whole epoch. Each table plans its own change (steer.Plan)
// from the op's old state if it holds the VIP to its new state if it is to
// — the SMux every VIP, in its mode; the NIC a FlagNic one — so a VIP that
// only lost DIPs loses them in place, and a mode flip opens no drain. Caller
// holds cfgMu.
func (n *Node) reconcileSMux(ds []delta.Op) error {
	sm, nic := n.pair.SMux, n.pair.NIC
	var smuxOps, nicOps []steer.Op
	for _, op := range ds {
		smuxOps = steer.Plan(smuxOps, side(op.Old, sm.HasVIP(op.VIP), true), side(op.New, true, true))
		if nic != nil {
			onNIC := op.New != nil && op.New.Flags&delta.FlagNic != 0
			nicOps = steer.Plan(nicOps, side(op.Old, nic.HasVIP(op.VIP), false), side(op.New, onNIC, false))
		}
	}
	sm.Apply(smuxOps)
	if nic != nil {
		nic.Apply(nicOps)
	}
	n.vips.Set(int64(sm.NumVIPs()))
	for _, op := range append(smuxOps, nicOps...) {
		if op.Err != nil {
			return op.Err
		}
	}
	return nil
}

// side is what a table holds of a replicated VIP: v's config — in v's mode
// when the table keeps modes — if it holds it, nothing otherwise. The config
// shares v's backend list, which a mirror never edits in place (delta.State)
// and a table copies when it builds an entry.
func side(v *delta.VIPState, held, modes bool) steer.Side {
	if v == nil || !held {
		return steer.Side{}
	}
	s := steer.Side{VIP: &service.VIP{Addr: v.Addr, Backends: v.Backends}}
	if modes {
		s.Mode = v.Mode
	}
	return s
}

// reconcileSwitch converges the switch's tables on the mirror — the switch
// agent of Figure 9 — in one batch, one table generation per delta, planned
// as the SMux's is. The switch holds a VIP iff its replicated Tier is
// delta.TierHMux; any other tier (a smux_only spec VIP is TierSMux) keeps it
// out of the hardware tables, and the HMux-miss fallback serves it through
// the software tier. Caller holds cfgMu, which is what serializes the
// switch's programming.
func (n *Node) reconcileSwitch(ds []delta.Op) error {
	var ops []steer.Op
	for _, op := range ds {
		onHMux := op.New != nil && op.New.Tier == delta.TierHMux
		ops = steer.Plan(ops, side(op.Old, n.hm.HasVIP(op.VIP), false), side(op.New, onHMux, false))
	}
	err := n.programSwitch(ops)
	n.vips.Set(int64(n.hm.Stats().VIPs))
	return err
}

// programSwitch applies a batch of operations to the switch (steer.OpSet
// programs a VIP's entries, steer.OpRemove removes one's, steer.OpRemoveDIP
// one DIP of one's) and then, the tables first and in batch order, accounts
// each: a failed operation is counted and changed nothing; an applied one is
// counted and traced. Programming has no route side effect: nothing in the
// socket world routes by BGP — a client addresses a switch node directly,
// and a table miss follows the spec's static aggregate to an SMux. It
// returns the first failure. The node keeps nothing per applied operation (a
// blank switch node is refilled by delta replication).
func (n *Node) programSwitch(ops []steer.Op) error {
	n.hm.Apply(ops)
	var firstErr error
	for _, op := range ops {
		if op.Err != nil {
			n.swOpErrs.Inc()
			if firstErr == nil {
				firstErr = op.Err
			}
			continue
		}
		code, dip := uint32(1), uint64(0) // the trace's B: 0 set-vip, 1 remove-vip, 2 remove-dip
		switch op.Kind {
		case steer.OpSet:
			code = 0
		case steer.OpRemoveDIP:
			code, dip = 2, uint64(op.DIP)
		}
		n.swOps.Inc()
		n.Rec.Record(telemetry.KindTableProgram, n.self32, uint32(op.Addr), code, dip)
	}
	return firstErr
}

// reconcileHost converges the host agent's local DIP registrations on the
// mirror: register when a touched VIP's backend set contains this host's
// address, unregister when it no longer does. Caller holds cfgMu.
func (n *Node) reconcileHost(ds []delta.Op) error {
	self := packet.Addr(n.self32)
	var firstErr error
	for _, op := range ds {
		want := op.New != nil && slices.ContainsFunc(op.New.Backends, func(b delta.Backend) bool { return b.Addr == self })
		have := slices.Contains(n.agent.LocalDIPs(op.VIP), self)
		var err error
		switch {
		case want && !have:
			err = n.agent.RegisterDIP(op.VIP, self)
		case !want && have:
			err = n.agent.UnregisterDIP(self)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var total int64
	for a := range n.cfg.VIPs {
		total += int64(len(n.agent.LocalDIPs(a)))
	}
	n.dips.Set(total)
	return firstErr
}
