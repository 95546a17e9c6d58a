package ecmp

import (
	"errors"
	"slices"
)

// Errors returned by group operations.
var (
	ErrEmptyGroup     = errors.New("ecmp: group has no members")
	ErrMemberNotFound = errors.New("ecmp: member not found")
)

// DefaultSlots is the default resilient-hashing slot count per group. Real
// switch ASICs use a fixed small power of two per ECMP group; 256 keeps the
// remap granularity fine enough that removing one of up to 512 members only
// touches that member's slots.
const DefaultSlots = 256

// Group is an ECMP selection group implementing resilient hashing in the
// style of Broadcom Smart-Hash (paper §5.1 [2]): a fixed-size slot table maps
// hash(tuple) % slots → member. Removing a member rewrites only the failed
// member's slots, so connections to the surviving members keep their mapping.
// Adding a member rebuilds the table (resilient hashing only protects
// removal — which is exactly why Duet bounces a VIP through the SMux when
// adding a DIP, paper §5.2 "DIP addition").
type Group struct {
	members []uint32 // member IDs in insertion order (tunnel table indices, DIP ids, ...)
	weights []uint32 // parallel to members; WCMP weights, 1 = equal
	slots   []int32  // slot table; value is an index into members, -1 if empty
}

// NewGroup builds a group over members with their WCMP weights (paper §5.2
// "Heterogeneity among servers"; parallel slices, a zero weight counts as 1)
// in one largest-remainder fill of the default slot table. There is no
// in-place add: adding a member is a new group, the non-resilient full rehash
// a real ASIC performs on member addition, and the table depends only on the
// final member and weight lists.
func NewGroup(members, weights []uint32) *Group {
	return newGroupSlots(DefaultSlots, members, weights)
}

// newGroupSlots is NewGroup with a specific slot-table size (the default when
// slots is not positive).
func newGroupSlots(slots int, members, weights []uint32) *Group {
	if slots <= 0 {
		slots = DefaultSlots
	}
	g := &Group{
		members: slices.Clone(members),
		weights: make([]uint32, len(members)),
		slots:   make([]int32, slots),
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

// Clone returns a deep copy of the group. Snapshot-published tables (hmux,
// smux) treat groups as immutable once visible to the dataplane; resilient
// member removal therefore clones the group, mutates the copy, and republishes
// it instead of writing in place.
func (g *Group) Clone() *Group {
	cp := &Group{
		members: append([]uint32(nil), g.members...),
		weights: append([]uint32(nil), g.weights...),
		slots:   append([]int32(nil), g.slots...),
	}
	return cp
}

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
		return ErrMemberNotFound
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
