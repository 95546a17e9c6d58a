package ecmp_test

import (
	"math/rand"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
)

// refGroup is a naive reference model of the resilient-hash contract: it
// tracks only which members are alive and, per slot index, the member that
// owned it last. On removal, orphaned slots may move anywhere (we don't
// model the exact rebalance) but slots owned by survivors must not move.
// The property test drives steer's entry and the model with the same random
// op sequence and checks the contract after every step.
type refGroup struct {
	alive map[packet.Addr]bool
}

func TestGroupRandomOpsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		e := newEntry(nil)
		ref := &refGroup{alive: make(map[packet.Addr]bool)}
		var members []service.Backend
		nextID := 0

		snapshot := func() map[uint64]packet.Addr {
			out := make(map[uint64]packet.Addr)
			for h := uint64(0); h < 512; h++ {
				if d, err := e.DIP(packet.FiveTuple{}, h); err == nil {
					out[h] = d
				}
			}
			return out
		}

		prev := snapshot()
		for step := 0; step < 40; step++ {
			op := rng.Intn(3)
			switch {
			case op == 0 || len(members) == 0: // add
				id := member(nextID)
				nextID++
				members = append(members, service.Backend{Addr: id, Weight: uint32(1 + rng.Intn(3))})
				e = newEntry(members) // adding a member is a new entry
				ref.alive[id] = true
				// Addition is NOT resilient: no per-slot stability check,
				// but every selected member must be alive.
				cur := snapshot()
				for h, m := range cur {
					if !ref.alive[m] {
						t.Fatalf("trial %d step %d: hash %d selects dead member %s", trial, step, h, m)
					}
				}
				prev = cur
			case op == 1 && len(members) > 0: // remove (resilient)
				idx := rng.Intn(len(members))
				victim := members[idx].Addr
				members = append(members[:idx], members[idx+1:]...)
				next, err := e.WithoutBackend(victim)
				if err != nil {
					t.Fatalf("remove %s: %v", victim, err)
				}
				e = next
				delete(ref.alive, victim)
				cur := snapshot()
				for h, m := range cur {
					if !ref.alive[m] {
						t.Fatalf("trial %d step %d: dead member %s selected", trial, step, m)
					}
					if prevM, ok := prev[h]; ok && prevM != victim && m != prevM {
						t.Fatalf("trial %d step %d: hash %d moved %s→%s though %s survived",
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
			// Slot-table accounting: every slot owned by an alive member,
			// and every alive member owning one (each has ≥ 2 of 256 here).
			owners := slotOwners(e)
			total := 0
			for m, c := range owners {
				if !ref.alive[m] {
					t.Fatalf("dead member %s owns %d slots", m, c)
				}
				total += c
			}
			if len(owners) != len(members) {
				t.Fatalf("trial %d step %d: %d members own slots, want %d", trial, step, len(owners), len(members))
			}
			if len(members) > 0 && total != steer.Slots {
				t.Fatalf("slot table leaked: %d/%d", total, steer.Slots)
			}
		}
	}
}
