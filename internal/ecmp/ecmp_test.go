package ecmp

import (
	"math"
	"testing"
	"testing/quick"

	"duet/internal/packet"
)

func tuple(i uint32) packet.FiveTuple {
	return packet.FiveTuple{
		Src:     packet.Addr(0x0a000000 + i),
		Dst:     packet.MustParseAddr("10.255.0.1"),
		SrcPort: uint16(1024 + i%50000),
		DstPort: 80,
		Proto:   packet.ProtoTCP,
	}
}

func TestHashDeterministic(t *testing.T) {
	a := Hash(tuple(7))
	b := Hash(tuple(7))
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if Hash(tuple(7)) == Hash(tuple(8)) {
		t.Fatal("distinct tuples should (overwhelmingly) hash differently")
	}
}

func TestHashSensitivity(t *testing.T) {
	base := tuple(1)
	variants := []packet.FiveTuple{base, base, base, base, base}
	variants[0].Src++
	variants[1].Dst++
	variants[2].SrcPort++
	variants[3].DstPort++
	variants[4].Proto++
	h := Hash(base)
	for i, v := range variants {
		if Hash(v) == h {
			t.Errorf("variant %d: changing one field did not change the hash", i)
		}
	}
}

func TestHashUniformity(t *testing.T) {
	// Chi-squared-ish sanity check: 100k flows over 16 buckets should be
	// within a few percent of uniform.
	const flows, buckets = 100000, 16
	counts := make([]int, buckets)
	for i := uint32(0); i < flows; i++ {
		counts[Hash(tuple(i))%buckets]++
	}
	want := float64(flows) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: %d flows, want ~%.0f (±5%%)", b, c, want)
		}
	}
}

func TestGroupEqualSplit(t *testing.T) {
	g := equalGroup(4)
	counts := make(map[uint32]int)
	const flows = 40000
	for i := uint32(0); i < flows; i++ {
		counts[pick(g, Hash(tuple(i)))]++
	}
	for m := uint32(0); m < 4; m++ {
		frac := float64(counts[m]) / flows
		if math.Abs(frac-0.25) > 0.03 {
			t.Errorf("member %d got %.3f of flows, want ~0.25", m, frac)
		}
	}
}

func TestGroupEmpty(t *testing.T) {
	g := NewGroup(nil, nil)
	if g.Size() != 0 {
		t.Fatalf("size = %d, want 0", g.Size())
	}
	if err := g.Remove(9); err != ErrMemberNotFound {
		t.Fatalf("got %v, want ErrMemberNotFound", err)
	}
}

func TestGroupRemoveToEmpty(t *testing.T) {
	g := NewGroup([]uint32{1}, []uint32{1})
	if err := g.Remove(1); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 0 {
		t.Fatal("size should be 0")
	}
	if owners := g.SlotOwners(); len(owners) != 0 {
		t.Fatalf("an empty group's slots still have owners: %v", owners)
	}
}

// TestResilientRemoval is the core resilient-hashing property (paper §5.1):
// removing one member must not remap any flow that previously hashed to a
// surviving member.
func TestResilientRemoval(t *testing.T) {
	g := equalGroup(8)
	const flows = 20000
	before := make([]uint32, flows)
	for i := uint32(0); i < flows; i++ {
		before[i] = pick(g, Hash(tuple(i)))
	}
	const failed = 3
	if err := g.Remove(failed); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := uint32(0); i < flows; i++ {
		after := pick(g, Hash(tuple(i)))
		switch {
		case before[i] == failed:
			if after == failed {
				t.Fatalf("flow %d still maps to removed member", i)
			}
			moved++
		case after != before[i]:
			t.Fatalf("flow %d remapped %d→%d although its member survived", i, before[i], after)
		}
	}
	if moved == 0 {
		t.Fatal("no flows belonged to the removed member; test is vacuous")
	}
}

func TestResilientRemovalProperty(t *testing.T) {
	// For any member count 2..16 and any removed index, survivors keep all
	// their slots.
	f := func(nRaw, removeRaw uint8) bool {
		n := 2 + int(nRaw%15)
		g := equalGroup(n)
		victim := uint32(int(removeRaw) % n)
		beforeOwners := g.SlotOwners()
		if err := g.Remove(victim); err != nil {
			return false
		}
		afterOwners := g.SlotOwners()
		for m, c := range beforeOwners {
			if m == victim {
				continue
			}
			if afterOwners[m] < c {
				return false // a survivor lost slots
			}
		}
		return afterOwners[victim] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSequentialRemovals(t *testing.T) {
	g := equalGroup(6)
	for _, victim := range []uint32{0, 5, 2} {
		if err := g.Remove(victim); err != nil {
			t.Fatalf("remove %d: %v", victim, err)
		}
		owners := g.SlotOwners()
		if owners[victim] != 0 {
			t.Fatalf("removed member %d still owns slots", victim)
		}
		total := 0
		for _, c := range owners {
			total += c
		}
		if total != DefaultSlots {
			t.Fatalf("slot table leaked: %d owned, want %d", total, DefaultSlots)
		}
	}
	if g.Size() != 3 {
		t.Fatalf("size = %d, want 3", g.Size())
	}
}

func TestWCMPWeights(t *testing.T) {
	// Paper §5.2: faster DIPs get larger weights. 3:1 should see ~75%/25%.
	g := NewGroup([]uint32{100, 200}, []uint32{3, 1})
	counts := make(map[uint32]int)
	const flows = 40000
	for i := uint32(0); i < flows; i++ {
		counts[pick(g, Hash(tuple(i)))]++
	}
	frac := float64(counts[100]) / flows
	if math.Abs(frac-0.75) > 0.03 {
		t.Errorf("weighted member got %.3f of flows, want ~0.75", frac)
	}
}

func TestZeroWeightCountsAsOne(t *testing.T) {
	g := NewGroup([]uint32{1, 2}, []uint32{0, 1}) // 0 is treated as weight 1
	owners := g.SlotOwners()
	if owners[1] == 0 || owners[2] == 0 {
		t.Fatalf("zero weight not normalized: %v", owners)
	}
}

func TestNewGroupSlotsClamp(t *testing.T) {
	g := newGroupSlots(-4, []uint32{1}, []uint32{1})
	if len(g.slots) != DefaultSlots || pick(g, 0) != 1 {
		t.Fatalf("%d slots serving %d, want %d serving member 1", len(g.slots), pick(g, 0), DefaultSlots)
	}
}

func TestSlotApportionmentExact(t *testing.T) {
	// With 4 equal members and 256 slots, each must own exactly 64.
	g := equalGroup(4)
	for m, c := range g.SlotOwners() {
		if c != DefaultSlots/4 {
			t.Errorf("member %d owns %d slots, want %d", m, c, DefaultSlots/4)
		}
	}
}

func BenchmarkHash(b *testing.B) {
	tup := tuple(12345)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Hash(tup)
	}
}

// pick is the member a flow hash selects: its slot's, as every mux tier's
// flattened table reads it.
func pick(g *Group, h uint64) uint32 { return g.SlotMember(int(h % DefaultSlots)) }

// equalGroup is a group of members 0..n-1, weight 1 each.
func equalGroup(n int) *Group {
	members := make([]uint32, n)
	weights := make([]uint32, n)
	for i := range members {
		members[i], weights[i] = uint32(i), 1
	}
	return NewGroup(members, weights)
}

// SlotOwners returns how many slots each member currently owns, keyed by
// member ID.
func (g *Group) SlotOwners() map[uint32]int {
	out := make(map[uint32]int, len(g.members))
	for _, s := range g.slots {
		if s >= 0 {
			out[g.members[s]]++
		}
	}
	return out
}
