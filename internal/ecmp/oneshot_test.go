package ecmp_test

import (
	"math"
	"math/rand"
	"testing"

	"duet/internal/service"
	"duet/internal/steer"
)

// incremental is the per-member build the one-shot fill replaced, kept as the
// reference: start from an empty table and, for each member in turn, append
// it and re-apportion the whole table. It returns each slot's member index.
func incremental(weights []uint32) []int32 {
	slots := make([]int32, steer.Slots)
	for i := range slots {
		slots[i] = -1
	}
	var ws []uint32
	for _, w := range weights {
		if w == 0 {
			w = 1
		}
		ws = append(ws, w)
		incrementalRebuild(ws, slots)
	}
	return slots
}

// incrementalRebuild is the largest-remainder fill as the per-member build
// ran it after every append.
func incrementalRebuild(weights []uint32, slots []int32) {
	if len(weights) == 0 {
		return
	}
	var total uint64
	for _, w := range weights {
		total += uint64(w)
	}
	n := len(slots)
	counts := make([]int, len(weights))
	rem := make([]uint64, len(weights))
	assigned := 0
	for i, w := range weights {
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
				slots[pos] = int32(i)
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

// TestOneShotMatchesIncremental: steer's one-shot fill leaves the slot table
// identical to the per-member build it replaced, so every tier's slot array
// — and every encapsulated packet — is unchanged. Member counts run 1..512:
// one list in 40 uniform over the range, the rest log-uniform over 1..64,
// where real backend sets sit (the per-member reference is cubic in the
// count). Weights are 0..8, 0 counted as 1.
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
		bs := make([]service.Backend, n)
		weights := make([]uint32, n)
		for i := range bs {
			weights[i] = uint32(rng.Intn(9))
			bs[i] = service.Backend{Addr: member(i), Weight: weights[i]}
		}
		want := incremental(weights)
		e := newEntry(bs)
		for s := range want {
			if got, ref := pick(e, uint64(s)), member(int(want[s])); got != ref {
				t.Fatalf("trial %d (%d members, weights %v) slot %d: %s, the per-member build %s", trial, n, weights, s, got, ref)
			}
		}
	}
}
