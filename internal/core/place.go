package core

import (
	"fmt"
	"slices"

	"duet/internal/bgp"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/topology"
)

// Target is what Place is to make of one VIP. VIP is its config (nil keeps
// the record's; a VIP the cluster does not know needs one), Remove takes it
// off every table and forgets it, and Stay leaves it where it is; otherwise
// it is served on Switches (the HMux tier: one home, or §9's replicas), on
// every NIC, or — neither — on the SMux backstop alone, which holds every
// VIP. Hold holds the route step back: the tables move and the /32
// announcements stay, the first half of a migration leg. Mode, when set, is
// the VIP's consistency mode on the SMuxes. Place records the outcome in Err.
type Target struct {
	Addr     packet.Addr
	VIP      *service.VIP
	Remove   bool
	Stay     bool
	Switches []topology.SwitchID
	NIC      bool
	Hold     bool
	Mode     *steer.Mode
	Err      error
}

// hop is what a valid target changes: its VIP's placement and config (nil:
// not configured), before and after.
type hop struct {
	valid    bool
	from, to placement
	old, new *service.VIP
}

// Place is the one writer of VIPs — added, edited, moved or removed. Under
// the writer lock it diffs the targets against the records, plans every
// switch, NIC and SMux table with steer.Plan and hands each its share as one
// Apply, one generation per table per batch, in §4.2's order: hosts are
// wired for new DIPs; the switches that only lose apply, then the SMuxes,
// the NICs and the switches that gain, removals first in each, so every
// move transits the SMux stepping stone; routes follow as one bgp.Apply,
// withdrawals first; DIPs no longer listed are unwired; each record is
// replaced, never edited. A VIP is all or nothing across its switches and
// NICs: an invalid target changes nothing, as does a config change beyond
// dropped DIPs in place on a switch (§5.2: withdraw first, so the SMuxes'
// connection state masks the rehash); one a table refuses falls back to the
// SMux tier with its config (leaving the tables it did reach is their
// second generation).
func (c *Cluster) Place(ts []Target) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.placeLocked(ts)
}

func (c *Cluster) placeLocked(ts []Target) {
	hops := make([]hop, len(ts))
	var sm []steer.Op // the SMuxes' batch
	for i := range ts {
		hops[i], sm, ts[i].Err = c.hopLocked(&ts[i], sm)
	}
	c.program(ts, hops, sm)
	// A refused VIP leaves every table the batch put it in; its routes follow.
	undo := make([]hop, len(hops))
	for i, h := range hops {
		if h.valid && ts[i].Err != nil {
			back := placement{}
			if ts[i].Hold && h.new != nil {
				back.routes = h.from.routes
			}
			undo[i], hops[i].to = hop{true, h.to, back, h.new, h.new}, back
		}
	}
	c.program(ts, undo, nil)

	at := c.rec.Now()
	var routes []bgp.Op
	for _, withdraw := range []bool{true, false} {
		for i, h := range hops {
			off, on := h.from.routes, h.to.routes
			if !withdraw {
				off, on = on, off
			}
			outside(off, on, func(s topology.SwitchID) {
				routes = append(routes, bgp.Op{Prefix: packet.HostPrefix(ts[i].Addr), NH: bgp.NodeID(s), At: at, Withdraw: withdraw})
			})
		}
	}
	c.Routes.Apply(routes)

	for i, h := range hops {
		addr := ts[i].Addr
		if !h.valid {
			continue
		}
		if h.old != h.new {
			for _, b := range diffBackends(h.old, h.new) {
				c.unhostBackendLocked(addr, b.Addr, h.new == nil)
			}
			c.vips[addr] = h.new
			if h.new == nil {
				delete(c.vips, addr)
			}
		}
		switch p := h.to; {
		case len(p.sws()) > 0 || p.nic:
			p.tables, p.routes = slices.Clone(p.tables), slices.Clone(p.routes) // the record's own, not the caller's
			c.placed[addr] = p
		default:
			delete(c.placed, addr)
		}
	}
}

// hopLocked validates a target, works out what it changes and appends its
// ops to the SMuxes' batch sm; a target it refuses leaves sm as it was. A
// set there — a new VIP, or a config change beyond dropped DIPs — must be a
// valid config, and off every switch that held the VIP (§5.2). The hosts of
// the DIPs it adds are wired here, before any table can direct traffic at
// them.
func (c *Cluster) hopLocked(t *Target, sm []steer.Op) (hop, []steer.Op, error) {
	n, from, old := len(sm), c.placed[t.Addr], c.vips[t.Addr]
	refuse := func(err error) (hop, []steer.Op, error) { return hop{}, sm[:n], err }
	h := hop{valid: true, from: from, to: from, old: old, new: old}
	switch {
	case old == nil && (t.VIP == nil || t.Remove):
		return refuse(ErrVIPUnknown)
	case t.VIP != nil && t.VIP.Addr != t.Addr:
		return refuse(fmt.Errorf("core: target %s carries the config of VIP %s", t.Addr, t.VIP.Addr))
	case t.Mode != nil && *t.Mode > steer.ModeHybrid:
		return refuse(fmt.Errorf("core: invalid mode %d for VIP %s", uint8(*t.Mode), t.Addr))
	case t.Remove:
		h.to, h.new = placement{}, nil
	case t.VIP != nil:
		h.new = cloneVIP(t.VIP) // the record's own, not the caller's
	}
	if err := c.moveLocked(t, &h); err != nil {
		return refuse(err)
	}
	mode, _ := c.SMuxes[0].ModeOf(t.Addr) // a new VIP's: the SMuxes' default
	next := mode
	if t.Mode != nil {
		next = *t.Mode
	}
	sm = steer.Plan(sm, steer.Side{VIP: old, Mode: mode}, steer.Side{VIP: h.new, Mode: next})
	if set := sm[n:]; len(set) == 1 && set[0].Kind == steer.OpSet { // a set comes alone
		if err := h.new.Validate(); err != nil {
			return refuse(err)
		}
		if slices.ContainsFunc(h.from.tables, func(s topology.SwitchID) bool { return slices.Contains(h.to.tables, s) }) {
			return refuse(fmt.Errorf("core: VIP %s is on switch %v; withdraw first", t.Addr, h.from.tables))
		}
	}
	if h.new != old {
		for _, b := range diffBackends(h.new, old) {
			if err := c.hostBackendLocked(t.Addr, b.Addr); err != nil {
				return refuse(err)
			}
		}
	}
	return h, sm, nil
}

// moveLocked checks where a target puts its VIP and records it in h.to.
func (c *Cluster) moveLocked(t *Target, h *hop) error {
	if t.Remove || t.Stay {
		return nil
	}
	h.to = placement{tables: t.Switches, routes: t.Switches, nic: t.NIC}
	if t.Hold {
		h.to.routes = h.from.routes
	}
	switch {
	case t.NIC && len(t.Switches) > 0:
		return fmt.Errorf("core: VIP %s targets both the HMux and the NIC tier", t.Addr)
	case t.NIC && len(c.NMuxes) == 0:
		return ErrNMuxDisabled
	case t.Hold && len(h.from.routes) > 0 && len(t.Switches) > 0 && !slices.Equal(t.Switches, h.from.routes):
		return fmt.Errorf("core: VIP %s is announced from switch %v; withdraw first", t.Addr, h.from.routes)
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

// tableOps appends a hop's ops for a switch or the NIC tier, which holds
// the VIP before (held) and after (holds) and keeps no mode of its own.
func tableOps(ops []steer.Op, h hop, held, holds bool) []steer.Op {
	var before, after steer.Side
	if held {
		before.VIP = h.old
	}
	if holds {
		after.VIP = h.new
	}
	return steer.Plan(ops, before, after)
}

// setsLast orders a table's batch removals first: Plan gives a table one
// set, or ops that take out, per hop.
func setsLast(a, b steer.Op) int {
	switch {
	case (a.Kind == steer.OpSet) == (b.Kind == steer.OpSet):
		return 0
	case a.Kind == steer.OpSet:
		return 1
	}
	return -1
}

// program hands each switch and the NIC tier its share of hops as one
// Apply, removals first, and the SMuxes sm: the switches that only lose,
// the SMuxes, the NICs — which resolve against their SMux's steer table, so
// they never hold a config it lacks, nor re-pin flows they drop for a
// removed DIP — then the switches that gain. A refused op fails its target.
func (c *Cluster) program(ts []Target, hops []hop, sm []steer.Op) {
	hw := make(map[topology.SwitchID][]steer.Op)
	var nic []steer.Op
	for _, h := range hops {
		plan := func(s topology.SwitchID) {
			if ops := tableOps(hw[s], h, slices.Contains(h.from.tables, s), slices.Contains(h.to.tables, s)); len(ops) > 0 {
				hw[s] = ops
			}
		}
		for _, s := range h.from.tables {
			plan(s)
		}
		outside(h.to.tables, h.from.tables, plan)
		nic = tableOps(nic, h, h.from.nic, h.to.nic)
	}
	for _, ops := range hw {
		slices.SortStableFunc(ops, setsLast)
	}
	slices.SortStableFunc(nic, setsLast)
	apply := func(m interface{ Apply([]steer.Op) }, ops []steer.Op) {
		if len(ops) == 0 {
			return
		}
		m.Apply(ops)
		for _, op := range ops {
			if op.Err != nil {
				if t := &ts[slices.IndexFunc(ts, func(t Target) bool { return t.Addr == op.Addr })]; t.Err == nil {
					t.Err = op.Err
				}
			}
		}
	}
	gains := func(ops []steer.Op) bool { return ops[len(ops)-1].Kind == steer.OpSet }
	for s, ops := range hw {
		if !gains(ops) {
			apply(c.HMuxes[s], ops)
		}
	}
	for _, m := range c.SMuxes {
		apply(m, sm)
	}
	for _, m := range c.NMuxes {
		apply(m, nic)
	}
	for s, ops := range hw {
		if gains(ops) {
			apply(c.HMuxes[s], ops)
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
