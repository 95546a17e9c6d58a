package wire

// The receiver side of delta replication: every dataplane node keeps a
// delta.State mirror of the leader's config and reconciles only the VIPs an
// incoming delta touches into its role's tables. A snapshot push (the
// recovery path for a blank restart behind the compaction horizon) lands as
// its diff from the mirror, so it too reprograms exactly the VIPs whose
// config it changes. A VIP a table refused stays in the mirror and is
// retried when its config next changes.

import (
	"duet/internal/delta"
	"duet/internal/packet"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// handleLeader is a dataplane node's side of replication: a heartbeat or a
// delta push from the leader, behind the leader fence (see fence). A
// heartbeat is a push without a delta, its ack the applied-epoch probe that
// tells the leader what to ship. A push applies its delta to the mirror and
// reconciles the touched VIPs through the role's reconcile func; a snapshot
// is turned into its diff from the mirror first. The ack always carries the
// applied epoch: a gap rejection tells the leader exactly where this node
// stands, so it ships the missing range instead of the full config.
// delta.Apply is all-or-nothing, so a rejected push leaves the mirror, the
// epoch and the tables where they were and the leader's next push meets the
// state it expects.
func (n *Node) handleLeader(env, ack *Envelope, reconcile func(cs []change) error) error {
	n.cfgMu.Lock()
	defer n.cfgMu.Unlock()
	err := fence(env, ack, &n.leaderTerm, n.cfg.Epoch)
	if env.Type == MsgLeaderHeartbeat {
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
	return reconcile(changes(d))
}

// reconcileSMux converges the SMux (and its NIC table, when present) on the
// mirror for the touched VIPs: one batch per table, so each publishes one
// generation per delta and a hybrid flow drains against the table as it
// stood before the whole epoch. A VIP the delta only took DIPs out of loses
// them in place on each table that holds it — the SMux, and the NIC when the
// VIP is NIC-placed — so only those DIPs' flows move; any other change sets
// the VIP's entry afresh. Caller holds cfgMu.
func (n *Node) reconcileSMux(cs []change) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	nic := n.pair.NIC
	var smuxOps, nicOps []steer.Op
	for _, c := range cs {
		a := c.addr
		vs, ok := n.cfg.VIPs[a]
		if !ok {
			if n.pair.SMux.HasVIP(a) {
				smuxOps = append(smuxOps, steer.Op{Kind: steer.OpRemove, Addr: a})
			}
			if nic != nil && nic.HasVIP(a) {
				nicOps = append(nicOps, steer.Op{Kind: steer.OpRemove, Addr: a})
			}
			continue
		}
		v, err := serviceVIPOf(vs)
		if err != nil {
			note(err)
			continue
		}
		if c.removed != nil && n.pair.SMux.HasVIP(a) {
			smuxOps = append(smuxOps, c.removed...)
		} else {
			smuxOps = append(smuxOps, steer.Op{Kind: steer.OpSet, VIP: v, Mode: vs.Mode})
		}
		switch {
		case nic == nil:
		case vs.Flags&delta.FlagNic != 0 && c.removed != nil && nic.HasVIP(a):
			nicOps = append(nicOps, c.removed...)
		case vs.Flags&delta.FlagNic != 0:
			nicOps = append(nicOps, steer.Op{Kind: steer.OpSet, VIP: v})
		case nic.HasVIP(a):
			nicOps = append(nicOps, steer.Op{Kind: steer.OpRemove, Addr: a})
		}
	}
	if len(smuxOps) > 0 {
		n.pair.SMux.Apply(smuxOps)
	}
	if len(nicOps) > 0 {
		nic.Apply(nicOps)
	}
	for _, op := range smuxOps {
		note(op.Err)
	}
	for _, op := range nicOps {
		note(op.Err)
	}
	n.vips.Set(int64(n.pair.SMux.NumVIPs()))
	return firstErr
}

// reconcileSwitch converges the switch's tables on the mirror — the switch
// agent of Figure 9 — in one batch, one table generation per delta. The
// switch holds a VIP iff its replicated Tier is delta.TierHMux; any other
// tier (a smux_only spec VIP is TierSMux) keeps it out of the hardware
// tables, and the HMux-miss fallback serves it through the software tier.
// A held VIP the delta only took DIPs out of loses them in place,
// resiliently; any other change to a held VIP bounces it through
// remove+add, the wire world's equivalent of the withdraw/announce
// migration step. A tier flip changes the VIP's state, so the switch
// rebuilds it: it programs the VIP or withdraws it. Caller holds cfgMu, which is what
// serializes the switch's programming.
func (n *Node) reconcileSwitch(cs []change) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var ops []steer.Op
	for _, c := range cs {
		a := c.addr
		vs, ok := n.cfg.VIPs[a]
		hardware := ok && vs.Tier == delta.TierHMux
		has := n.hm.HasVIP(a)
		if !hardware {
			if has {
				ops = append(ops, steer.Op{Kind: steer.OpRemove, Addr: a})
			}
			continue
		}
		v, err := serviceVIPOf(vs)
		if err != nil {
			note(err)
			continue
		}
		switch {
		case has && c.removed != nil:
			ops = append(ops, c.removed...)
		case has:
			ops = append(ops, steer.Op{Kind: steer.OpRemove, Addr: a}, steer.Op{Kind: steer.OpAdd, VIP: v})
		default:
			ops = append(ops, steer.Op{Kind: steer.OpAdd, VIP: v})
		}
	}
	note(n.programSwitch(ops))
	n.vips.Set(int64(n.hm.Stats().VIPs))
	return firstErr
}

// programSwitch applies a batch of operations to the switch (steer.OpAdd adds
// a VIP's entries, steer.OpRemove removes one's, steer.OpRemoveDIP one DIP of
// one's) and then, the tables first and in batch order, accounts each: a
// failed operation is counted and changed nothing; an applied one is counted
// and traced. Programming has no route side effect: nothing in the socket
// world routes by BGP — a client addresses a switch node directly, and a
// table miss follows the spec's static aggregate to an SMux. It returns the
// first failure. The node keeps nothing per applied operation (a blank switch
// node is refilled by delta replication).
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
		addr, code, dip := op.Addr, uint32(1), uint64(0) // the trace's B: 0 add-vip, 1 remove-vip, 2 remove-dip
		switch op.Kind {
		case steer.OpAdd:
			addr, code = op.VIP.Addr, 0
		case steer.OpRemoveDIP:
			code, dip = 2, uint64(op.DIP)
		}
		n.swOps.Inc()
		n.Rec.Record(telemetry.KindTableProgram, n.self32, uint32(addr), code, dip)
	}
	return firstErr
}

// reconcileHost converges the host agent's local DIP registrations on the
// mirror: register when a touched VIP's backend set contains this host's
// address, unregister when it no longer does. Caller holds cfgMu.
func (n *Node) reconcileHost(cs []change) error {
	self := packet.Addr(n.self32)
	var firstErr error
	for _, c := range cs {
		a := c.addr
		want := false
		if vs, ok := n.cfg.VIPs[a]; ok {
			for _, b := range vs.Backends {
				if b.Addr == self {
					want = true
					break
				}
			}
		}
		have := false
		for _, d := range n.agent.LocalDIPs(a) {
			if d == self {
				have = true
				break
			}
		}
		var err error
		switch {
		case want && !have:
			err = n.agent.RegisterDIP(a, self)
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
