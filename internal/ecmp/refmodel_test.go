package ecmp

import (
	"math/rand"
	"testing"
)

// refGroup is a naive reference model of the resilient-hash contract: it
// tracks only which members are alive and, per slot index, the member that
// owned it last. On removal, orphaned slots may move anywhere (we don't
// model the exact rebalance) but slots owned by survivors must not move.
// The property test drives Group and the model with the same random op
// sequence and checks the contract after every step.
type refGroup struct {
	alive map[uint32]bool
}

func TestGroupRandomOpsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		g := NewGroup(nil, nil)
		ref := &refGroup{alive: make(map[uint32]bool)}
		var members, weights []uint32
		nextID := uint32(0)

		snapshot := func() map[uint64]uint32 {
			out := make(map[uint64]uint32)
			if g.Size() == 0 {
				return out
			}
			for h := uint64(0); h < 512; h++ {
				out[h] = pick(g, h)
			}
			return out
		}

		prev := snapshot()
		for step := 0; step < 40; step++ {
			op := rng.Intn(3)
			switch {
			case op == 0 || len(members) == 0: // add
				id := nextID
				nextID++
				members = append(members, id)
				weights = append(weights, uint32(1+rng.Intn(3)))
				g = NewGroup(members, weights) // adding a member is a new group
				ref.alive[id] = true
				// Addition is NOT resilient: no per-slot stability check,
				// but every selected member must be alive.
				cur := snapshot()
				for h, m := range cur {
					if !ref.alive[m] {
						t.Fatalf("trial %d step %d: hash %d selects dead member %d", trial, step, h, m)
					}
				}
				prev = cur
			case op == 1 && len(members) > 0: // remove (resilient)
				idx := rng.Intn(len(members))
				victim := members[idx]
				members = append(members[:idx], members[idx+1:]...)
				weights = append(weights[:idx], weights[idx+1:]...)
				if err := g.Remove(victim); err != nil {
					t.Fatalf("remove %d: %v", victim, err)
				}
				delete(ref.alive, victim)
				cur := snapshot()
				for h, m := range cur {
					if !ref.alive[m] {
						t.Fatalf("trial %d step %d: dead member %d selected", trial, step, m)
					}
					if prevM, ok := prev[h]; ok && prevM != victim && m != prevM {
						t.Fatalf("trial %d step %d: hash %d moved %d→%d though %d survived",
							trial, step, h, prevM, m, prevM)
					}
				}
				prev = cur
			default: // select-only step: determinism
				if len(members) == 0 {
					continue
				}
				cur := snapshot()
				for h, m := range cur {
					if prev[h] != m {
						t.Fatalf("trial %d step %d: selection changed with no mutation", trial, step)
					}
				}
			}
			// Size invariant.
			if g.Size() != len(members) {
				t.Fatalf("trial %d step %d: size %d != %d", trial, step, g.Size(), len(members))
			}
			// Slot-table accounting: all slots owned by alive members.
			total := 0
			for m, c := range g.SlotOwners() {
				if !ref.alive[m] {
					t.Fatalf("dead member %d owns %d slots", m, c)
				}
				total += c
			}
			if len(members) > 0 && total != DefaultSlots {
				t.Fatalf("slot table leaked: %d/%d", total, DefaultSlots)
			}
		}
	}
}
