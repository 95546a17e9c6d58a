package steer

import (
	"errors"
	"slices"

	"duet/internal/packet"
	"duet/internal/service"
)

// The reference the slot tables are checked against: the resilient-hashing
// ECMP group Entry's fill and removal were moved out of (it lived in
// internal/ecmp), kept as it was — its own member list, its own int32 slot
// table, removal by compacting the member list — so the tests compare Entry
// with an implementation that shares none of its code. Exported so the
// cross-tier test in package steer_test can build one.

var errMemberNotFound = errors.New("ecmp: member not found")

// Group is an ECMP selection group implementing resilient hashing in the
// style of Broadcom Smart-Hash (paper §5.1 [2]): a fixed-size slot table maps
// hash(tuple) % slots → member. Removing a member rewrites only the failed
// member's slots, so connections to the surviving members keep their mapping.
// Adding a member rebuilds the table.
type Group struct {
	members []uint32 // member IDs in insertion order (tunnel table indices, DIP ids, ...)
	weights []uint32 // parallel to members; WCMP weights, 1 = equal
	slots   []int32  // slot table; value is an index into members, -1 if empty
}

// NewGroup builds a group over members with their WCMP weights (parallel
// slices, a zero weight counts as 1) in one largest-remainder fill of the
// slot table.
func NewGroup(members, weights []uint32) *Group {
	g := &Group{
		members: slices.Clone(members),
		weights: make([]uint32, len(members)),
		slots:   make([]int32, Slots),
	}
	for i, w := range weights[:len(members)] {
		g.weights[i] = max(w, 1)
	}
	for i := range g.slots {
		g.slots[i] = -1
	}
	g.rebuild()
	return g
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.members) }

// Remove deletes a member resiliently: only slots that pointed at the
// removed member are remapped (round-robin over the survivors), so flows
// hashing to surviving members are untouched.
func (g *Group) Remove(member uint32) error {
	idx := -1
	for i, m := range g.members {
		if m == member {
			idx = i
			break
		}
	}
	if idx < 0 {
		return errMemberNotFound
	}
	g.members = append(g.members[:idx], g.members[idx+1:]...)
	g.weights = append(g.weights[:idx], g.weights[idx+1:]...)
	if len(g.members) == 0 {
		for i := range g.slots {
			g.slots[i] = -1
		}
		return nil
	}
	// Shift the member indices stored in surviving slots, then patch only
	// the slots that pointed at the removed member.
	next := 0
	for i, s := range g.slots {
		switch {
		case s == int32(idx):
			g.slots[i] = int32(next % len(g.members))
			next++
		case s > int32(idx):
			g.slots[i] = s - 1
		}
	}
	return nil
}

// rebuild fills the slot table proportionally to member weights. This is the
// non-resilient full rehash a real ASIC performs on member addition.
func (g *Group) rebuild() {
	if len(g.members) == 0 {
		return
	}
	var total uint64
	for _, w := range g.weights {
		total += uint64(w)
	}
	// Largest-remainder apportionment of slots to members keeps the split
	// within one slot of the exact weight ratio.
	n := len(g.slots)
	counts := make([]int, len(g.members))
	rem := make([]uint64, len(g.members))
	assigned := 0
	for i, w := range g.weights {
		exact := uint64(n) * uint64(w)
		counts[i] = int(exact / total)
		rem[i] = exact % total
		assigned += counts[i]
	}
	for assigned < n {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = 0
		assigned++
	}
	// Interleave members across the slot table so adjacent hash values do
	// not all land on the same member.
	pos := 0
	for remaining := n; remaining > 0; {
		progressed := false
		for i := range counts {
			if counts[i] > 0 {
				g.slots[pos] = int32(i)
				pos++
				counts[i]--
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
}

// SlotMember returns the member slot s of a non-empty group's table serves:
// the member a flow hash h with h % slots == s selects.
func (g *Group) SlotMember(s int) uint32 { return g.members[g.slots[s]] }

// refGroup is the reference group over a backend list's indices, weighted
// as the list is.
func refGroup(bs []service.Backend) *Group {
	members, weights := make([]uint32, len(bs)), make([]uint32, len(bs))
	for i, b := range bs {
		members[i], weights[i] = uint32(i), b.Weight
	}
	return NewGroup(members, weights)
}

// refSlots is what Entry.slots must hold for a reference group over bs's
// indices: each slot's member's DIP, nil once no member is left.
func refSlots(g *Group, bs []service.Backend) *[Slots]packet.Addr {
	if g.Size() == 0 {
		return nil
	}
	out := new([Slots]packet.Addr)
	for s := range out {
		out[s] = bs[g.SlotMember(s)].Addr
	}
	return out
}
