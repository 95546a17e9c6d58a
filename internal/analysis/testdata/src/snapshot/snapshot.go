// Package snapshot exercises the snapshot analyzer: values loaded from
// an atomic.Pointer are immutable published generations.
package snapshot

import "sync/atomic"

type table struct {
	m  map[string]int
	n  int
	up []bool
}

type holder struct {
	p atomic.Pointer[table]
}

func mutateView(h *holder) {
	v := h.p.Load()
	v.m["k"] = 1     // want `store through atomic\.Pointer\.Load\(\) view in mutateView`
	v.n = 2          // want `store through atomic\.Pointer\.Load\(\) view in mutateView`
	v.n++            // want `store through atomic\.Pointer\.Load\(\) view in mutateView`
	delete(v.m, "k") // want `delete on a map reached through atomic\.Pointer\.Load\(\) view`
}

func mutateAlias(h *holder) {
	v := h.p.Load()
	w := v
	w.n = 1 // want `store through atomic\.Pointer\.Load\(\) view in mutateAlias`
}

func republish(h *holder) {
	v := h.p.Load()
	h.p.Store(v)             // want `Store of the previously Loaded view in republish`
	h.p.Swap(v)              // want `Store of the previously Loaded view in republish`
	h.p.CompareAndSwap(v, v) // want `CompareAndSwap republishes the previously Loaded view in republish`
}

// copyOnWrite is the blessed pattern: fresh copy, mutate, publish.
func copyOnWrite(h *holder) {
	v := h.p.Load()
	cp := &table{m: make(map[string]int, len(v.m)), n: v.n}
	for k, val := range v.m {
		cp.m[k] = val
	}
	cp.m["k"] = 1
	cp.n++
	h.p.CompareAndSwap(v, cp) // loaded view as the old value is fine
	h.p.Store(cp)
}

// rebound shows taint clearing: after v is rebound to a fresh value,
// stores through it are fine.
func rebound(h *holder) {
	v := h.p.Load()
	v = &table{m: map[string]int{}}
	v.n = 3
	h.p.Store(v)
}

// staleCopy: a struct copy of a generation is shallow — its slice and map
// fields still point at the published backing arrays.
func staleCopy(h *holder) {
	s := *h.p.Load()
	s.n = 4          // a field of the copy is the copy's own
	s.up[0] = true   // want `store through atomic\.Pointer\.Load\(\) view in staleCopy`
	s.m["k"] = 1     // want `store through atomic\.Pointer\.Load\(\) view in staleCopy`
	s.m["k"]++       // want `store through atomic\.Pointer\.Load\(\) view in staleCopy`
	delete(s.m, "k") // want `delete on a map reached through atomic\.Pointer\.Load\(\) view`
	h.p.Store(&s)
}

// nextGeneration is the blessed derivation: copy the struct, give every field
// about to be edited a fresh value, publish the copy.
func nextGeneration(h *holder) {
	s := *h.p.Load()
	s.up = append([]bool(nil), s.up...)
	s.up[0] = true
	s.m = map[string]int{}
	s.m["k"] = 1
	delete(s.m, "k")
	s.n++
	h.p.Store(&s)
}

func lockGuarded(h *holder) {
	v := h.p.Load()
	//duet:allow snapshot fixture mirrors a lock-guarded mutable member
	v.n = 9
}
