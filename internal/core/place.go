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
// not configured), before and after; its share of the SMuxes' batch, each op
// carrying the entry it derives; and the entry the SMux tier holds after it,
// the one every table that gains the VIP installs.
type hop struct {
	valid    bool
	from, to placement
	old, new *service.VIP
	sm       []steer.Op
	entry    *steer.Entry
}

// Place is the one writer of VIPs — added, edited, moved or removed. Under
// the writer lock it diffs the targets against the records, plans the SMux
// tier's change with steer.Plan, derives each VIP's new entry once from the
// one the SMuxes hold, gives every switch and the NIC tier its share of
// those ops and entries, and hands each table its share as one Apply, one
// generation per table per batch, in §4.2's order: the hosts of new DIPs are
// wired, all in one cluster generation; the switches that only lose apply,
// then the SMuxes, the NICs and the switches that gain, removals first in
// each, so every move — switch to switch, switch to NIC or back — transits
// the SMux stepping stone within the batch; routes follow as one bgp.Apply,
// withdrawals first; DIPs no longer listed are unwired; each record is
// replaced, never edited. A VIP is all or nothing across its switches and
// NICs: an invalid target changes nothing, as does a config change beyond
// dropped DIPs in place on a switch (§5.2: withdraw first, so the SMuxes'
// connection state masks the rehash); one a table refuses falls back to the
// SMux tier with its config (leaving the tables it did reach is their
// second generation). A target that leaves its VIP where it is changes
// nothing, and a second target for a VIP already in the batch is refused:
// each derives from what the tables held before it. Each target's outcome
// is in its Err, and Place returns the first of them that is not nil.
func (c *Cluster) Place(ts ...Target) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.placeLocked(ts)
}

func (c *Cluster) placeLocked(ts []Target) error {
	hops := make([]hop, len(ts))
	var sm []steer.Op // the SMuxes' batch
	var w wiring      // the hosts of the DIPs the batch adds that are new to the cluster
	var seen map[packet.Addr]bool
	if len(ts) > 1 {
		seen = make(map[packet.Addr]bool, len(ts))
	}
	for i := range ts {
		if seen[ts[i].Addr] {
			ts[i].Err = fmt.Errorf("core: VIP %s is targeted twice in one batch", ts[i].Addr)
			continue
		}
		if seen != nil {
			seen[ts[i].Addr] = true
		}
		hops[i], sm, ts[i].Err = c.hopLocked(&ts[i], sm, &w)
	}
	c.wireLocked(&w)
	c.program(ts, hops, sm)
	// A refused VIP leaves every table the batch put it in; its routes follow.
	undo := make([]hop, len(hops))
	for i, h := range hops {
		if h.valid && ts[i].Err != nil {
			back := placement{}
			if ts[i].Hold && h.new != nil {
				back.routes = h.from.routes
			}
			undo[i], hops[i].to = hop{valid: true, from: h.to, to: back, old: h.new, new: h.new}, back
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
	for _, t := range ts {
		if t.Err != nil {
			return t.Err
		}
	}
	return nil
}

// hopLocked validates a target, works out what it changes and appends its
// ops to the SMuxes' batch sm, each carrying the entry it derives from the
// one the SMux tier holds (steer.Derive) — derived once, installed by every
// table; a target it refuses leaves sm as it was. A set there — a new VIP,
// or a config change beyond dropped DIPs — must be a valid config, and off
// every switch that held the VIP (§5.2). The hosts of the DIPs it adds that
// the cluster has not seen join w, which placeLocked publishes before any
// table can direct traffic at them.
func (c *Cluster) hopLocked(t *Target, sm []steer.Op, w *wiring) (hop, []steer.Op, error) {
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
	h.sm = sm[n:]
	h.entry, _ = c.SMuxes[0].Steer().View().Find(t.Addr)
	for i := range h.sm {
		if err := steer.Derive(&h.sm[i], h.entry, mode); err != nil {
			return refuse(err)
		}
		h.entry = h.sm[i].Entry
	}
	if len(h.sm) == 1 && h.sm[0].Kind == steer.OpSet && // a set comes alone
		slices.ContainsFunc(h.from.tables, func(s topology.SwitchID) bool { return slices.Contains(h.to.tables, s) }) {
		return refuse(fmt.Errorf("core: VIP %s is on switch %v; withdraw first", t.Addr, h.from.tables))
	}
	if h.new != old {
		for _, b := range diffBackends(h.new, old) {
			if err := c.hostBackendLocked(w, t.Addr, b.Addr); err != nil {
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
// the VIP before (held) and after (holds): a table that gains it sets the
// entry the SMux tier holds, one that loses it removes it, and one that
// keeps it takes the SMuxes' share, carrying the same entries — the NIC
// tier all but a mode change, which its table has no place for (program
// drops it). A switch thus never builds from the config what the SMux tier
// holds: every table holding a VIP holds one entry whatever edits came
// before (hopLocked refuses a set of a VIP a switch keeps).
func tableOps(ops []steer.Op, h hop, held, holds bool) []steer.Op {
	switch {
	case holds && !held:
		return append(ops, steer.Op{Kind: steer.OpSet, Addr: h.new.Addr, VIP: h.new, Entry: h.entry})
	case held && !holds:
		return append(ops, steer.Op{Kind: steer.OpRemove, Addr: h.old.Addr})
	case held:
		return append(ops, h.sm...)
	}
	return ops
}

// setsLast orders a table's batch removals first: tableOps gives a table
// one set, or ops that take out, per hop.
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
	nic = slices.DeleteFunc(nic, func(op steer.Op) bool { return op.Kind == steer.OpMode })
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

// AssignToNMux programs a VIP's wildcard entries on every NIC, a one-target
// Place: its routes stay on the SMux aggregate and packets reaching an SMux
// server hit the NIC table first. A VIP on a switch leaves it in the same
// batch. Fails with nmux.ErrTableFull, changing nothing, if the NICs cannot
// hold it.
func (c *Cluster) AssignToNMux(addr packet.Addr) error {
	return c.Place(Target{Addr: addr, NIC: true})
}

// SetVIPMode switches a VIP's per-connection consistency mode on every SMux
// (see internal/steer), a one-target Place that leaves the VIP where it is.
// It bumps each steer-table epoch but opens no drain window: no slot moves,
// so no flow's DIP does.
func (c *Cluster) SetVIPMode(addr packet.Addr, mode steer.Mode) error {
	return c.Place(Target{Addr: addr, Stay: true, Mode: &mode})
}
