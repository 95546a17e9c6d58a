// The hash's own tests, and the flow-level properties of the selection it
// drives: the WCMP fill of a steer.Entry's slot table and its resilient
// removal (paper §5.1, §5.2), read through Entry.DIP one slot at a time.
package ecmp_test

import (
	"math"
	"testing"
	"testing/quick"

	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
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
	a := ecmp.Hash(tuple(7))
	b := ecmp.Hash(tuple(7))
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if ecmp.Hash(tuple(7)) == ecmp.Hash(tuple(8)) {
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
	h := ecmp.Hash(base)
	for i, v := range variants {
		if ecmp.Hash(v) == h {
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
		counts[ecmp.Hash(tuple(i))%buckets]++
	}
	want := float64(flows) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: %d flows, want ~%.0f (±5%%)", b, c, want)
		}
	}
}

func TestGroupEqualSplit(t *testing.T) {
	e := equalEntry(4)
	counts := make(map[packet.Addr]int)
	const flows = 40000
	for i := uint32(0); i < flows; i++ {
		counts[pick(e, ecmp.Hash(tuple(i)))]++
	}
	for m := 0; m < 4; m++ {
		frac := float64(counts[member(m)]) / flows
		if math.Abs(frac-0.25) > 0.03 {
			t.Errorf("member %d got %.3f of flows, want ~0.25", m, frac)
		}
	}
}

func TestGroupEmpty(t *testing.T) {
	e := steer.NewEntry(&service.VIP{Addr: vip}, steer.ModeStateless)
	if owners := slotOwners(e); len(owners) != 0 {
		t.Fatalf("an empty set's slots have owners: %v", owners)
	}
	if _, err := e.WithoutBackend(member(9)); err != steer.ErrBackendNotFound {
		t.Fatalf("got %v, want ErrBackendNotFound", err)
	}
}

func TestGroupRemoveToEmpty(t *testing.T) {
	e := without(t, equalEntry(1), 0)
	if owners := slotOwners(e); len(owners) != 0 {
		t.Fatalf("an emptied set's slots still have owners: %v", owners)
	}
	if _, err := e.DIP(tuple(0), 0); err != steer.ErrNoBackend {
		t.Fatalf("got %v, want ErrNoBackend", err)
	}
}

// TestResilientRemoval is the core resilient-hashing property (paper §5.1):
// removing one member must not remap any flow that previously hashed to a
// surviving member.
func TestResilientRemoval(t *testing.T) {
	e := equalEntry(8)
	const flows = 20000
	before := make([]packet.Addr, flows)
	for i := uint32(0); i < flows; i++ {
		before[i] = pick(e, ecmp.Hash(tuple(i)))
	}
	failed := member(3)
	e = without(t, e, 3)
	moved := 0
	for i := uint32(0); i < flows; i++ {
		after := pick(e, ecmp.Hash(tuple(i)))
		switch {
		case before[i] == failed:
			if after == failed {
				t.Fatalf("flow %d still maps to removed member", i)
			}
			moved++
		case after != before[i]:
			t.Fatalf("flow %d remapped %s→%s although its member survived", i, before[i], after)
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
		e := equalEntry(n)
		victim := int(removeRaw) % n
		beforeOwners := slotOwners(e)
		next, err := e.WithoutBackend(member(victim))
		if err != nil {
			return false
		}
		afterOwners := slotOwners(next)
		for m, c := range beforeOwners {
			if m == member(victim) {
				continue
			}
			if afterOwners[m] < c {
				return false // a survivor lost slots
			}
		}
		return afterOwners[member(victim)] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSequentialRemovals(t *testing.T) {
	e := equalEntry(6)
	var owners map[packet.Addr]int
	for _, victim := range []int{0, 5, 2} {
		e = without(t, e, victim)
		owners = slotOwners(e)
		if owners[member(victim)] != 0 {
			t.Fatalf("removed member %d still owns slots", victim)
		}
		total := 0
		for _, c := range owners {
			total += c
		}
		if total != steer.Slots {
			t.Fatalf("slot table leaked: %d owned, want %d", total, steer.Slots)
		}
	}
	if len(owners) != 3 {
		t.Fatalf("%d members own slots, want 3", len(owners))
	}
}

func TestWCMPWeights(t *testing.T) {
	// Paper §5.2: faster DIPs get larger weights. 3:1 should see ~75%/25%.
	e := newEntry([]service.Backend{{Addr: member(100), Weight: 3}, {Addr: member(200), Weight: 1}})
	counts := make(map[packet.Addr]int)
	const flows = 40000
	for i := uint32(0); i < flows; i++ {
		counts[pick(e, ecmp.Hash(tuple(i)))]++
	}
	frac := float64(counts[member(100)]) / flows
	if math.Abs(frac-0.75) > 0.03 {
		t.Errorf("weighted member got %.3f of flows, want ~0.75", frac)
	}
}

func TestZeroWeightCountsAsOne(t *testing.T) {
	e := newEntry([]service.Backend{{Addr: member(1), Weight: 0}, {Addr: member(2), Weight: 1}}) // 0 is treated as weight 1
	owners := slotOwners(e)
	if owners[member(1)] != owners[member(2)] {
		t.Fatalf("zero weight not counted as one: %v", owners)
	}
}

func TestSlotApportionmentExact(t *testing.T) {
	// With 4 equal members and 256 slots, each must own exactly 64.
	for m, c := range slotOwners(equalEntry(4)) {
		if c != steer.Slots/4 {
			t.Errorf("member %s owns %d slots, want %d", m, c, steer.Slots/4)
		}
	}
}

func BenchmarkHash(b *testing.B) {
	tup := tuple(12345)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ecmp.Hash(tup)
	}
}

var vip = packet.MustParseAddr("10.255.0.1")

// member is the DIP of a set's i-th member.
func member(i int) packet.Addr { return packet.Addr(0x64000001 + i) }

// newEntry is a VIP's entry over bs.
func newEntry(bs []service.Backend) *steer.Entry {
	return steer.NewEntry(&service.VIP{Addr: vip, Backends: bs}, steer.ModeStateless)
}

// equalEntry is an entry over members 0..n-1, weight 1 each.
func equalEntry(n int) *steer.Entry {
	bs := make([]service.Backend, n)
	for i := range bs {
		bs[i] = service.Backend{Addr: member(i), Weight: 1}
	}
	return newEntry(bs)
}

// without is e with member i removed resiliently.
func without(t *testing.T, e *steer.Entry, i int) *steer.Entry {
	t.Helper()
	next, err := e.WithoutBackend(member(i))
	if err != nil {
		t.Fatalf("remove member %d: %v", i, err)
	}
	return next
}

// pick is the DIP a flow hash selects: its slot's.
func pick(e *steer.Entry, h uint64) packet.Addr {
	d, _ := e.DIP(packet.FiveTuple{}, h)
	return d
}

// slotOwners returns how many slots each DIP owns.
func slotOwners(e *steer.Entry) map[packet.Addr]int {
	out := make(map[packet.Addr]int)
	for s := uint64(0); s < steer.Slots; s++ {
		if d, err := e.DIP(packet.FiveTuple{}, s); err == nil {
			out[d]++
		}
	}
	return out
}
