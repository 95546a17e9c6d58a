package ecmp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// incremental is the per-member build NewGroup replaced, kept verbatim as the
// reference: start from an empty table and, for each member in turn, append
// it and re-apportion the whole table.
func incremental(members, weights []uint32) []int32 {
	g := &Group{slots: make([]int32, DefaultSlots)}
	for i := range g.slots {
		g.slots[i] = -1
	}
	for i, m := range members {
		w := weights[i]
		if w == 0 {
			w = 1
		}
		g.members = append(g.members, m)
		g.weights = append(g.weights, w)
		incrementalRebuild(g)
	}
	return g.slots
}

// incrementalRebuild is the largest-remainder fill as the per-member build
// ran it after every append.
func incrementalRebuild(g *Group) {
	if len(g.members) == 0 {
		return
	}
	var total uint64
	for _, w := range g.weights {
		total += uint64(w)
	}
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

// TestOneShotMatchesIncremental: the one-shot fill leaves the slot table
// byte-identical to the per-member build it replaced, so every tier's slot
// array — and every encapsulated packet — is unchanged. Member counts run
// 1..512: one list in 40 uniform over the range, the rest log-uniform over
// 1..64, where real backend sets sit (the per-member reference is cubic in
// the count). Weights are 0..8, 0 counted as 1.
func TestOneShotMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := int(math.Pow(64, rng.Float64()))
		switch {
		case trial < 2:
			n = []int{1, 512}[trial] // both ends, always
		case trial%40 == 0:
			n = 1 + rng.Intn(512)
		}
		members := make([]uint32, n)
		weights := make([]uint32, n)
		for i := range members {
			members[i], weights[i] = rng.Uint32(), uint32(rng.Intn(9))
		}
		want := incremental(members, weights)
		g := NewGroup(members, weights)
		if !slices.Equal(g.slots, want) {
			t.Fatalf("trial %d (%d members, weights %v): one-shot slot table differs from the per-member build", trial, n, weights)
		}
		for s := range g.slots {
			if got, ref := g.SlotMember(s), members[want[s]]; got != ref {
				t.Fatalf("trial %d slot %d: member %d, want %d", trial, s, got, ref)
			}
		}
	}
}
