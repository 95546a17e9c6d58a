// Package addrmap is the one way a table generation is copied for mutation:
// an immutable map keyed by packet.Addr whose With and Without return a new
// value sharing everything with the old one except the part they touched.
// Every copy-on-write table in the dataplane — core's host-agent and TIP
// indexes, the steer table, the HMux, NMux and host-agent tables — is one of
// these behind an atomic.Pointer: a writer derives the next generation and
// publishes it; a reader holding an earlier one keeps reading it, unchanged.
//
// A Map is a directory of plain Go maps ("chunks"), a key's chunk picked by a
// multiplicative hash of the address. A mutation copies the directory and the
// one chunk the key lives in; a batch of them (Edit) copies the directory once
// and each chunk it touches once. The directory's size follows from the
// table's (dirFor): a small table is one plain map, a large one keeps
// directory and chunk both at O(√n) — 32 chunks of ~60 at 2,000 entries, 256
// of ~200 at 50,000 — and there is nothing for a caller to size. Growing re-chunks the
// whole table, which keeps With O(√n) amortized; a directory never shrinks
// (an emptied table's lookups cost the same either way).
package addrmap

import (
	"maps"
	"slices"

	"duet/internal/packet"
)

// minChunk is the chunk size splitting stops at; a table no larger is one
// plain map. Measured both ways on the benchmark's 512-agent index: 32 chunks
// of 16 cost hw-steady 2-3 % of its forwarding time in directory and map-header
// cache lines, one 1,024-entry map cost +19 % set-up and +11 % ctl-churn
// convergence in whole-map copies; 8 chunks of 64 cost neither.
const minChunk = 64

// dirFor returns the directory size for a table of n entries: the power of
// two that keeps the average chunk no larger than the directory, or minChunk.
func dirFor(n int) int {
	d := 1
	for d*max(d, minChunk) < n {
		d *= 2
	}
	return d
}

// Map is an immutable packet.Addr → V map. The zero value is the empty map.
// Values are copied freely (five words); methods never modify the receiver's
// chunks, so any number of goroutines may read one Map while another derives
// the next from it.
type Map[V any] struct {
	first map[packet.Addr]V   // dir[0]: the whole of a one-chunk table, read without the directory
	dir   []map[packet.Addr]V // len is 0 or a power of two
	n     int
}

// slot picks k's chunk in a directory of size chunks (a power of two): the
// high half of a Fibonacci hash, so the sequential addresses real tables hold
// spread evenly.
//
//duet:hotpath
func slot(k packet.Addr, size int) int {
	return int(uint32(k)*0x9E3779B1>>16) & (size - 1)
}

// Get returns the value stored under k.
//
//duet:hotpath
func (m Map[V]) Get(k packet.Addr) (V, bool) {
	c := m.first
	if len(m.dir) > 1 {
		c = m.dir[slot(k, len(m.dir))]
	}
	v, ok := c[k]
	return v, ok
}

// Len returns the number of entries.
func (m Map[V]) Len() int { return m.n }

// Range calls f for every entry, in no particular order.
func (m Map[V]) Range(f func(packet.Addr, V)) {
	for _, c := range m.dir {
		for k, v := range c {
			f(k, v)
		}
	}
}

// With returns a map that holds v under k and is otherwise m.
func (m Map[V]) With(k packet.Addr, v V) Map[V] {
	e := m.Edit()
	e.Set(k, v)
	return e.Map()
}

// Without returns a map that holds nothing under k and is otherwise m (m
// itself when k is absent).
func (m Map[V]) Without(k packet.Addr) Map[V] {
	e := m.Edit()
	e.Delete(k)
	return e.Map()
}

// Edit is a batch of mutations derived from one Map: however many keys it
// touches, it copies the directory once and each chunk it writes at most
// once, and the Map it started from is never modified. With and Without are
// one-key Edits.
type Edit[V any] struct {
	m     Map[V]
	owned []bool // owned[i]: chunk i is this edit's own copy; nil until the directory is copied
}

// Edit starts a batch of mutations on m.
func (m Map[V]) Edit() *Edit[V] { return &Edit[V]{m: m} }

// Get returns the value the edit holds under k so far.
func (e *Edit[V]) Get(k packet.Addr) (V, bool) { return e.m.Get(k) }

// Len returns the number of entries the edit holds so far.
func (e *Edit[V]) Len() int { return e.m.n }

// Set stores v under k.
func (e *Edit[V]) Set(k packet.Addr, v V) {
	if _, had := e.m.Get(k); !had {
		if e.m.n++; dirFor(e.m.n) > len(e.m.dir) {
			e.m = e.m.rechunked(dirFor(e.m.n))
			e.owned = make([]bool, len(e.m.dir))
			for i := range e.owned {
				e.owned[i] = true
			}
		}
	}
	e.m.dir[e.chunk(k)][k] = v
}

// Delete removes k, if present.
func (e *Edit[V]) Delete(k packet.Addr) {
	if _, had := e.m.Get(k); !had {
		return
	}
	delete(e.m.dir[e.chunk(k)], k)
	e.m.n--
}

// Map returns the edited map. The edit stays usable: a later mutation copies
// again what it writes, so the returned Map never changes.
func (e *Edit[V]) Map() Map[V] {
	e.owned = nil
	return e.m
}

// chunk returns the index of k's chunk, first making it (and the directory)
// the edit's own copy: all a mutation of that chunk writes to. Every other
// chunk stays shared.
func (e *Edit[V]) chunk(k packet.Addr) int {
	if e.owned == nil {
		e.m.dir = slices.Clone(e.m.dir)
		e.owned = make([]bool, len(e.m.dir))
	}
	i := slot(k, len(e.m.dir))
	if !e.owned[i] {
		e.m.dir[i] = maps.Clone(e.m.dir[i])
		e.owned[i] = true
		e.m.first = e.m.dir[0]
	}
	return i
}

// rechunked copies every entry into a fresh directory of size chunks.
func (m Map[V]) rechunked(size int) Map[V] {
	next := Map[V]{dir: make([]map[packet.Addr]V, size), n: m.n}
	for i := range next.dir {
		next.dir[i] = make(map[packet.Addr]V, m.n/size+1)
	}
	m.Range(func(k packet.Addr, v V) { next.dir[slot(k, size)][k] = v })
	next.first = next.dir[0]
	return next
}
