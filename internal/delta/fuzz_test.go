package delta

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDeltaDecode hammers the decoder with arbitrary bytes: it must never
// panic, anything it accepts must re-encode to exactly the bytes it was
// given (one encoding per delta), and re-decode to the same delta.
func FuzzDeltaDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	a := randState(rng, 4)
	b := a.Clone()
	for i := 0; i < 5; i++ {
		mutate(rng, b)
	}
	f.Add(Diff(a, b).Encode())
	f.Add(SnapshotOf(b).Encode())
	f.Add([]byte{magicByte, codecVersion, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		enc := d.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted bytes re-encode differently:\n got %x\nwant %x", enc, data)
		}
		d2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted delta failed: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatal("accepted delta did not survive encode/decode")
		}
	})
}

// FuzzDeltaRoundTrip drives the whole pipeline from a seed: random state
// pair → Diff → Encode → Decode → Apply must reproduce the target state,
// and Invert must roll it back.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := randState(rng, 1+rng.Intn(8))
		b := a.Clone()
		for i := 0; i < int(steps%16); i++ {
			mutate(rng, b)
		}
		d, err := Decode(Diff(a, b).Encode())
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		got := a.Clone()
		if err := d.Apply(got); err != nil {
			t.Fatalf("apply: %v", err)
		}
		if !got.Equal(b) {
			t.Fatal("wire round-trip changed the delta's meaning")
		}
		inv, err := d.Invert()
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Apply(got); err != nil {
			t.Fatalf("apply inverse: %v", err)
		}
		if !got.Equal(a) {
			t.Fatal("inverse did not restore the source state")
		}
	})
}
