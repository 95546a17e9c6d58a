package core

import (
	"fmt"
	"slices"

	"duet/internal/bgp"
	"duet/internal/packet"
	"duet/internal/steer"
	"duet/internal/topology"
)

// Target is where Place is to serve one VIP: on Switches (the HMux tier: one
// home, or §9's replicas), on every NIC, or — neither — on the SMux backstop
// alone, which holds every VIP. Hold holds the route step back: the tables
// move and the /32 announcements stay, the first half of a migration leg.
// Mode, when set, is the VIP's consistency mode on the SMuxes. Place records
// the outcome in Err.
type Target struct {
	Addr     packet.Addr
	Switches []topology.SwitchID
	NIC      bool
	Hold     bool
	Mode     *steer.Mode
	Err      error
}

// hop is the placement a valid target's VIP leaves and the one it takes.
type hop struct {
	valid    bool
	from, to placement
}

// placeFor is where a target asking for sws (none: off the HMux tier) or the
// NIC tier, with hold, puts a VIP now at from.
func placeFor(from placement, sws []topology.SwitchID, nic, hold bool) placement {
	to := placement{tables: sws, routes: sws, nic: nic}
	if hold {
		to.routes = from.routes
	}
	return to
}

// Place moves a batch of VIPs to their targets under the writer lock and
// returns how many modes it changed. It diffs the targets against the
// cluster's records and hands each switch, NIC and SMux its share as one
// Apply, one generation per table per batch, withdrawals first: every move
// transits the SMux stepping stone (§4.2) and frees its room before any VIP
// takes it. Routes follow the tables, withdrawals before announcements. A VIP
// is all or nothing across its switches and the NICs: an invalid target
// changes nothing, one a table refuses falls back to the SMux tier (taking it
// out of the tables it did reach is those tables' second generation).
func (c *Cluster) Place(ts []Target) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.placeLocked(ts)
}

func (c *Cluster) placeLocked(ts []Target) int {
	hops := make([]hop, len(ts))
	var modes []steer.Op
	for i := range ts {
		t, from := &ts[i], c.placed[ts[i].Addr]
		if t.Err = c.checkLocked(t, from); t.Err != nil {
			continue
		}
		hops[i] = hop{true, from, placeFor(from, t.Switches, t.NIC, t.Hold)}
		if cur, _ := c.SMuxes[0].ModeOf(t.Addr); t.Mode != nil && *t.Mode != cur {
			modes = append(modes, steer.Op{Kind: steer.OpMode, Addr: t.Addr, Mode: *t.Mode})
		}
	}
	for _, sm := range c.SMuxes {
		sm.Apply(modes)
	}
	c.program(ts, hops)
	// A refused VIP leaves every table the batch put it in; its routes follow.
	undo := make([]hop, len(hops))
	for i, h := range hops {
		if h.valid && ts[i].Err != nil {
			back := placeFor(h.from, nil, false, ts[i].Hold)
			undo[i], hops[i].to = hop{true, h.to, back}, back
		}
	}
	c.program(ts, undo)

	at := c.rec.Now()
	for i, h := range hops {
		prefix := packet.HostPrefix(ts[i].Addr)
		outside(h.from.routes, h.to.routes, func(s topology.SwitchID) { c.Routes.Withdraw(prefix, bgp.NodeID(s), at) })
	}
	for i, h := range hops {
		prefix := packet.HostPrefix(ts[i].Addr)
		outside(h.to.routes, h.from.routes, func(s topology.SwitchID) { c.Routes.Announce(prefix, bgp.NodeID(s), at) })
	}

	for i, h := range hops {
		switch p := h.to; {
		case !h.valid:
		case len(p.sws()) > 0 || p.nic:
			p.tables, p.routes = slices.Clone(p.tables), slices.Clone(p.routes) // the record's own, not the caller's
			c.placed[ts[i].Addr] = p
		default:
			delete(c.placed, ts[i].Addr)
		}
	}
	return len(modes)
}

// program hands each switch and the NICs their share of hops as one Apply,
// withdrawals first, and charges each refused addition to its target.
func (c *Cluster) program(ts []Target, hops []hop) {
	hw := make(map[topology.SwitchID][]steer.Op)
	var nic []steer.Op
	for _, add := range []bool{false, true} {
		for i, h := range hops {
			addr := ts[i].Addr
			op, off, on := steer.Op{Kind: steer.OpRemove, Addr: addr}, h.from, h.to
			if add {
				op, off, on = steer.Op{Kind: steer.OpAdd, Addr: addr, VIP: c.vips[addr]}, h.to, h.from
			}
			outside(off.tables, on.tables, func(s topology.SwitchID) { hw[s] = append(hw[s], op) })
			if off.nic && !on.nic {
				nic = append(nic, op)
			}
		}
	}
	for s, ops := range hw {
		c.HMuxes[s].Apply(ops)
		refuse(ts, ops)
	}
	for _, nm := range c.NMuxes {
		nm.Apply(nic)
		refuse(ts, nic)
	}
}

// refuse charges each addition of ops a table refused to its target.
func refuse(ts []Target, ops []steer.Op) {
	for _, op := range ops {
		if op.Err != nil && op.Kind == steer.OpAdd {
			if t := &ts[slices.IndexFunc(ts, func(t Target) bool { return t.Addr == op.Addr })]; t.Err == nil {
				t.Err = op.Err
			}
		}
	}
}

// outside calls f on each switch of a that b lacks.
func outside(a, b []topology.SwitchID, f func(topology.SwitchID)) {
	for _, s := range a {
		if !slices.Contains(b, s) {
			f(s)
		}
	}
}

// checkLocked validates a target whose VIP is now at from.
func (c *Cluster) checkLocked(t *Target, from placement) error {
	_, known := c.vips[t.Addr]
	switch {
	case !known:
		return ErrVIPUnknown
	case t.NIC && len(t.Switches) > 0:
		return fmt.Errorf("core: VIP %s targets both the HMux and the NIC tier", t.Addr)
	case t.NIC && len(c.NMuxes) == 0:
		return ErrNMuxDisabled
	case t.Mode != nil && *t.Mode > steer.ModeHybrid:
		return fmt.Errorf("core: invalid mode %d for VIP %s", uint8(*t.Mode), t.Addr)
	case t.Hold && len(from.routes) > 0 && len(t.Switches) > 0 && !slices.Equal(t.Switches, from.routes):
		return fmt.Errorf("core: VIP %s is announced from switch %v; withdraw first", t.Addr, from.routes)
	}
	for i, sw := range t.Switches {
		switch {
		case int(sw) < 0 || int(sw) >= len(c.HMuxes):
			return ErrNoSuchSwitch
		case !c.upLocked(sw):
			return ErrSwitchDown
		case slices.Contains(t.Switches[:i], sw):
			return fmt.Errorf("core: duplicate replica switch %d", sw)
		}
	}
	return nil
}

// one places a single VIP, a batch of one: where it is now, as edit changes
// it. Every per-VIP placement mutator is one; a VIP placed elsewhere must be
// withdrawn before it is placed again.
func (c *Cluster) one(addr packet.Addr, edit func(t *Target) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.placed[addr]
	ts := []Target{{Addr: addr, Switches: p.tables, NIC: p.nic, Hold: !slices.Equal(p.tables, p.routes)}}
	t := &ts[0]
	if err := edit(t); err != nil {
		return err
	}
	if sws := p.sws(); (len(t.Switches) > 0 || t.NIC) && (len(sws) > 0 || p.nic) && (t.NIC != p.nic || !slices.Equal(t.Switches, sws)) {
		return fmt.Errorf("core: VIP %s is on switch %v or the NIC tier (%v); withdraw first", addr, sws, p.nic)
	}
	c.placeLocked(ts)
	return t.Err
}

// toHMux places a VIP on sws, or completes a ProgramHMux there.
func (c *Cluster) toHMux(addr packet.Addr, sws []topology.SwitchID, hold bool) error {
	return c.one(addr, func(t *Target) error {
		if len(sws) == 0 {
			return fmt.Errorf("core: no switch given for VIP %s", addr)
		}
		t.Switches, t.Hold = sws, hold
		return nil
	})
}

// fromHMux takes a VIP off its switches.
func (c *Cluster) fromHMux(addr packet.Addr, hold bool) error {
	return c.one(addr, func(t *Target) error {
		if len(c.placed[addr].sws()) == 0 {
			return ErrVIPUnknown
		}
		t.Switches, t.Hold = nil, hold
		return nil
	})
}

// AssignToHMux programs a VIP onto a switch and announces its /32 route, or
// completes a ProgramHMux there.
func (c *Cluster) AssignToHMux(addr packet.Addr, sw topology.SwitchID) error {
	return c.toHMux(addr, []topology.SwitchID{sw}, false)
}

// AssignReplicated is AssignToHMux onto several switches (§9): all announce
// the /32 and the fabric ECMPs across them, so a dead replica's share moves to
// the survivors with no SMux hop and — the shared hash — no remap.
func (c *Cluster) AssignReplicated(addr packet.Addr, switches []topology.SwitchID) error {
	return c.toHMux(addr, switches, false)
}

// ProgramHMux is AssignToHMux's first half: the switch's tables hold the VIP
// but the fabric has not heard of it, so its traffic still follows the SMux
// aggregate and HomeOf reports no home. A caller that models route
// propagation (internal/testbed) puts the BGP delay between this and the
// AssignToHMux that completes it.
func (c *Cluster) ProgramHMux(addr packet.Addr, sw topology.SwitchID) error {
	return c.toHMux(addr, []topology.SwitchID{sw}, true)
}

// WithdrawFromHMux removes a VIP from its switches; traffic falls back to the
// SMuxes (the stepping-stone state of §4.2). It completes a DeprogramHMux, and
// cancels a ProgramHMux.
func (c *Cluster) WithdrawFromHMux(addr packet.Addr) error {
	return c.fromHMux(addr, false)
}

// DeprogramHMux is WithdrawFromHMux's first half: the VIP leaves the switch's
// tables — HomeOf reports no home from here on — while the fabric still
// routes its /32 there, so until WithdrawFromHMux completes the move a packet
// misses the FIB and follows the aggregate to an SMux (Delivery.FIBMiss).
func (c *Cluster) DeprogramHMux(addr packet.Addr) error {
	return c.fromHMux(addr, true)
}

// AssignToNMux programs a VIP's wildcard entries on every NIC: its routes stay
// on the SMux aggregate and packets reaching an SMux server hit the NIC table
// first. Fails with nmux.ErrTableFull, changing nothing, if they cannot hold it.
func (c *Cluster) AssignToNMux(addr packet.Addr) error {
	return c.one(addr, func(t *Target) error { t.NIC = true; return nil })
}

// WithdrawFromNMux deprograms a VIP from every NIC; its traffic is served by
// the SMuxes alone again (flows pinned in the NIC tables are dropped, but
// the SMux picks the same DIPs — shared hash — so connections survive).
func (c *Cluster) WithdrawFromNMux(addr packet.Addr) error {
	return c.one(addr, func(t *Target) error {
		if !t.NIC {
			return ErrVIPUnknown
		}
		t.NIC = false
		return nil
	})
}

// SetVIPMode switches a VIP's per-connection consistency mode on every SMux
// (see internal/steer). It bumps each steer-table epoch but opens no drain
// window: no slot moves, so no flow's DIP does.
func (c *Cluster) SetVIPMode(addr packet.Addr, mode steer.Mode) error {
	return c.one(addr, func(t *Target) error { t.Mode = &mode; return nil })
}

// applyEach hands every mux of a fleet — switches, NICs or SMuxes — the same
// one-op batch and stops at the first that refuses it.
func applyEach[M interface{ Apply([]steer.Op) }](fleet []M, ops []steer.Op) error {
	for _, m := range fleet {
		if m.Apply(ops); ops[0].Err != nil {
			return ops[0].Err
		}
	}
	return nil
}
