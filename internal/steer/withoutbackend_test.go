package steer

import (
	"math/rand"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
)

// checkAgainstReference builds an entry from a backend list decoded from
// data, takes DIPs out of it one WithoutBackend at a time, and holds the slot
// array to the reference group's (refgroup_test.go) after the build and after
// every removal. data is: a count byte (1..40 backends), then an address and a
// weight byte per backend — the address one of 16, the zero address among
// them, so lists repeat DIPs — then one byte per removal, naming a backend
// of the list by index.
func checkAgainstReference(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	n := 1 + int(data[0])%40
	data = data[1:]
	bs := make([]service.Backend, 0, n)
	for ; len(bs) < n && len(data) >= 2; data = data[2:] {
		bs = append(bs, service.Backend{Addr: packet.Addr(data[0] % 16), Weight: uint32(data[1] % 9)})
	}
	e := NewEntry(&service.VIP{Addr: vipAddr, Backends: bs}, ModeStateless)
	g := refGroup(bs)
	live := make([]bool, len(bs))
	for i := range live {
		live[i] = true
	}
	check := func(step string) {
		t.Helper()
		want := refSlots(g, bs)
		switch {
		case (e.slots == nil) != (want == nil):
			t.Fatalf("%s: slots %v, reference %v (backends %v)", step, e.slots != nil, want != nil, bs)
		case want != nil && *e.slots != *want:
			t.Fatalf("%s: slot array differs from the reference (backends %v)", step, bs)
		}
	}
	check("build")
	for _, r := range data {
		if len(bs) == 0 {
			return
		}
		dip := bs[int(r)%len(bs)].Addr
		victim := -1
		for i, b := range bs {
			if live[i] && b.Addr == dip && !dip.IsZero() {
				victim = i
				break
			}
		}
		next, err := e.WithoutBackend(dip)
		if victim < 0 {
			if err != ErrBackendNotFound {
				t.Fatalf("removing %s, not a live member: %v", dip, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("removing %s: %v", dip, err)
		}
		if err := g.Remove(uint32(victim)); err != nil {
			t.Fatal(err)
		}
		e, live[victim] = next, false
		check("removing " + dip.String())
	}
}

// FuzzWithoutBackend: for any backend list — duplicates, weights 0..8, the
// zero address — and any removal sequence, the entry's slot array is the
// reference group's after the build and after every removal.
func FuzzWithoutBackend(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 1, 3, 1, 1, 0, 2})
	f.Add([]byte{5, 1, 3, 2, 0, 1, 1, 4, 8, 0, 2, 0, 2, 4, 1, 3})
	f.Add([]byte{39, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(checkAgainstReference)
}

// TestWithoutBackendMatchesReference runs the fuzz target's check over
// 3,000 random lists of 1–40 backends, each followed by up to 48 removals.
func TestWithoutBackendMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 1+2*40+rng.Intn(48))
		rng.Read(data)
		checkAgainstReference(t, data)
	}
}
