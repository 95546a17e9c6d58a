package addrmap

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"duet/internal/packet"
)

// contents reads a Map back through Range, failing on a key visited twice.
func contents(t *testing.T, m Map[int]) map[packet.Addr]int {
	t.Helper()
	got := make(map[packet.Addr]int, m.Len())
	m.Range(func(k packet.Addr, v int) {
		if _, dup := got[k]; dup {
			t.Fatalf("Range visited %s twice", k)
		}
		got[k] = v
	})
	return got
}

// check compares a Map with the builtin map it should equal: Len, Range, and
// Get on every key of the universe (present or not).
func check(t *testing.T, step int, m Map[int], want map[packet.Addr]int, universe int) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(want))
	}
	if got := contents(t, m); !maps.Equal(got, want) {
		t.Fatalf("step %d: Range yields %d entries that differ from the reference's %d", step, len(got), len(want))
	}
	for i := 0; i < universe; i++ {
		k := key(i)
		got, ok := m.Get(k)
		if w, wok := want[k]; ok != wok || got != w {
			t.Fatalf("step %d: Get(%s) = %d,%v, want %d,%v", step, k, got, ok, w, wok)
		}
	}
}

// key spreads the universe the way real tables do: runs of sequential
// addresses in a few /24s.
func key(i int) packet.Addr { return packet.AddrFrom4(10, byte(i>>16), byte(i>>8), byte(i)) }

// TestAgainstBuiltinMap drives seeded random With/Without sequences against
// the builtin map and keeps every 250th generation beside a copy of what the
// reference held then: each must still read exactly that after thousands of
// later mutations derived from it (persistence), through every directory
// doubling on the way up and with the directory kept on the way down.
func TestAgainstBuiltinMap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		const universe, steps = 3000, 12000
		type kept struct {
			step int
			m    Map[int]
			want map[packet.Addr]int
		}
		var (
			m     Map[int]
			want  = make(map[packet.Addr]int)
			gens  []kept
			grown int
		)
		for step := 0; step < steps; step++ {
			k := key(rng.Intn(universe))
			// Two inserts per removal for the first two thirds, the reverse
			// for the last: the table crosses every size between empty and
			// most of the universe both ways.
			filling := step < steps*2/3
			if (rng.Intn(3) > 0) == filling {
				m, want[k] = m.With(k, step), step
			} else {
				m = m.Without(k)
				delete(want, k)
			}
			grown = max(grown, len(m.dir))
			if step%250 == 0 {
				gens = append(gens, kept{step, m, maps.Clone(want)})
			}
		}
		check(t, steps, m, want, universe)
		for _, g := range gens {
			check(t, g.step, g.m, g.want, universe)
		}
		if grown < 8 {
			t.Fatalf("seed %d: directory never grew past %d chunks; the test did not cross a doubling", seed, grown)
		}
	}
}

// TestOrderIndependence: the same entries inserted in two orders read the
// same through Len, Get and Range, and Without of an absent key returns the
// receiver itself.
func TestOrderIndependence(t *testing.T) {
	const n = 500
	var fwd, rev Map[int]
	for i := 0; i < n; i++ {
		fwd = fwd.With(key(i), i)
		rev = rev.With(key(n-1-i), n-1-i)
	}
	want := contents(t, fwd)
	check(t, 0, rev, want, n+10)
	if len(want) != n {
		t.Fatalf("%d entries, want %d", len(want), n)
	}
	if same := fwd.Without(key(n + 1)); &same.dir[0] != &fwd.dir[0] || same.n != fwd.n {
		t.Fatal("Without of an absent key copied the map")
	}
	if again := fwd.With(key(3), 33); again.Len() != n {
		t.Fatalf("overwriting a key changed Len to %d", again.Len())
	} else if v, _ := fwd.Get(key(3)); v != 3 {
		t.Fatalf("overwriting a key in the successor changed the predecessor: %d", v)
	}
}

// TestZeroAllocGet gates the per-packet lookup on every table shape: the
// zero value, one chunk, and a grown directory; hits and misses.
func TestZeroAllocGet(t *testing.T) {
	for _, n := range []int{0, minChunk, 5000} {
		var m Map[*int]
		for i := 0; i < n; i++ {
			m = m.With(key(i), new(int))
		}
		if n == minChunk && len(m.dir) != 1 {
			t.Fatalf("%d entries spread over %d chunks, want one plain map", n, len(m.dir))
		}
		if n == 5000 && len(m.dir) < 16 {
			t.Fatalf("%d entries in %d chunks: the directory did not grow", n, len(m.dir))
		}
		hits := 0
		if allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < n+8; i++ {
				if _, ok := m.Get(key(i)); ok {
					hits++
				}
			}
		}); allocs != 0 {
			t.Errorf("%d entries: Get allocates %v times per sweep, want 0", n, allocs)
		}
		if hits != 101*n {
			t.Errorf("%d entries: %d hits over 101 sweeps, want %d", n, hits, 101*n)
		}
	}
}

// TestEditMatchesSequential: a batch of random sets and deletes reads exactly
// like the same mutations applied one With/Without at a time, the map it
// started from reads as before, and the batch copies each chunk it touches
// once. Batches start from tables just below a rechunk boundary and grow
// across it.
func TestEditMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rechunked := 0
	for trial := 0; trial < 200; trial++ {
		const universe = 3000
		fill := Map[int]{}.Edit()
		for i, n := 0, rng.Intn(universe); i < n; i++ {
			fill.Set(key(rng.Intn(universe)), -i)
		}
		if trial%4 == 0 { // to just below the next directory doubling
			for k := 0; dirFor(fill.m.n+1) == len(fill.m.dir) && k < universe; k++ {
				fill.Set(key(k), -k)
			}
		}
		src := fill.Map()
		before := contents(t, src)

		seq := src
		e := src.Edit()
		for op, n := 0, 1+rng.Intn(300); op < n; op++ {
			k := key(rng.Intn(universe))
			if rng.Intn(3) > 0 {
				seq = seq.With(k, op)
				e.Set(k, op)
			} else {
				seq = seq.Without(k)
				e.Delete(k)
			}
			v, ok := e.Get(k)
			if w, wok := seq.Get(k); v != w || ok != wok {
				t.Fatalf("trial %d op %d: the edit reads %s as %d,%v mid-batch", trial, op, k, v, ok)
			}
		}
		got := e.Map()
		if len(got.dir) > len(src.dir) {
			rechunked++
		}
		check(t, trial, got, contents(t, seq), universe)
		check(t, trial, src, before, universe)
		// Later edits through the same Edit leave the returned map alone.
		want := contents(t, got)
		e.Set(key(universe+1), 1)
		e.Delete(key(rng.Intn(universe)))
		check(t, trial, got, want, universe+2)
	}
	if rechunked < 20 {
		t.Fatalf("only %d of 200 batches crossed a rechunk boundary", rechunked)
	}
}

// TestEditCopiesEachChunkOnce: a batch touching many keys in one chunk of a
// multi-chunk table shares every other chunk with its source.
func TestEditCopiesEachChunkOnce(t *testing.T) {
	var src Map[int]
	for i := 0; i < 5000; i++ {
		src = src.With(key(i), i)
	}
	e := src.Edit()
	touched := map[int]bool{}
	for i := 0; i < 5000 && len(touched) < 3; i += 97 {
		e.Set(key(i), -i)
		touched[slot(key(i), len(src.dir))] = true
	}
	got := e.Map()
	for i := range src.dir {
		shared := reflect.ValueOf(got.dir[i]).UnsafePointer() == reflect.ValueOf(src.dir[i]).UnsafePointer()
		if shared == touched[i] {
			t.Fatalf("chunk %d: shared %v, touched %v", i, shared, touched[i])
		}
	}
}
