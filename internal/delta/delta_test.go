package delta

import (
	"math/rand"
	"reflect"
	"testing"

	"duet/internal/packet"
	"duet/internal/steer"
)

func vip(a uint32) packet.Addr { return packet.Addr(a) }

// randState builds a random configuration: the generator behind the
// property tests.
func randState(rng *rand.Rand, nVIPs int) *State {
	s := NewState()
	for i := 0; i < nVIPs; i++ {
		a := vip(0x0A000000 + uint32(rng.Intn(1000)))
		if _, ok := s.VIPs[a]; ok {
			continue
		}
		s.VIPs[a] = randVIP(rng, a)
	}
	return s
}

func randVIP(rng *rand.Rand, a packet.Addr) *VIPState {
	v := &VIPState{
		Addr:   a,
		Mode:   steer.Mode(rng.Intn(3)),
		Flags:  uint8(rng.Intn(4)),
		Tier:   Tier(rng.Intn(3)),
		Switch: Unassigned,
	}
	if v.Tier == TierHMux {
		v.Switch = int32(rng.Intn(64))
	}
	nb := 1 + rng.Intn(5)
	for i := 0; i < nb; i++ {
		d := vip(0x14000000 + uint32(rng.Intn(200)))
		if v.backendIdx(d) >= 0 {
			continue
		}
		v.Backends = append(v.Backends, Backend{Addr: d, Weight: 1 + uint32(rng.Intn(8))})
		sortBackends(v)
	}
	for i := 0; i < rng.Intn(3); i++ {
		b := v.Backends[rng.Intn(len(v.Backends))]
		blk := SNATBlock{DIP: b.Addr, Lo: uint16(32768 + 1024*rng.Intn(8)), Hi: 0}
		blk.Hi = blk.Lo + 1023
		if v.snatIdx(blk) >= 0 {
			continue
		}
		v.SNAT = append(v.SNAT, blk)
		sortSNAT(v)
	}
	return v
}

func sortBackends(v *VIPState) {
	for i := 1; i < len(v.Backends); i++ {
		for j := i; j > 0 && v.Backends[j].Addr < v.Backends[j-1].Addr; j-- {
			v.Backends[j], v.Backends[j-1] = v.Backends[j-1], v.Backends[j]
		}
	}
}

func sortSNAT(v *VIPState) {
	for i := 1; i < len(v.SNAT); i++ {
		for j := i; j > 0; j-- {
			a, b := v.SNAT[j], v.SNAT[j-1]
			if a.DIP < b.DIP || (a.DIP == b.DIP && a.Lo < b.Lo) {
				v.SNAT[j], v.SNAT[j-1] = b, a
			} else {
				break
			}
		}
	}
}

// mutate applies a random legal mutation to the state and bumps its epoch.
func mutate(rng *rand.Rand, s *State) {
	addrs := s.Addrs()
	if len(addrs) == 0 || rng.Intn(6) == 0 {
		a := vip(0x0A000000 + uint32(rng.Intn(1000)))
		if _, ok := s.VIPs[a]; !ok {
			s.VIPs[a] = randVIP(rng, a)
		}
	} else {
		a := addrs[rng.Intn(len(addrs))]
		v := s.VIPs[a]
		switch rng.Intn(6) {
		case 0:
			delete(s.VIPs, a)
		case 1:
			v.Mode = steer.Mode(rng.Intn(3))
		case 2:
			v.Flags = uint8(rng.Intn(4))
		case 3:
			v.Tier = Tier(rng.Intn(3))
			v.Switch = Unassigned
			if v.Tier == TierHMux {
				v.Switch = int32(rng.Intn(64))
			}
		case 4:
			if len(v.Backends) > 1 && rng.Intn(2) == 0 {
				i := rng.Intn(len(v.Backends))
				v.Backends = append(v.Backends[:i], v.Backends[i+1:]...)
			} else {
				d := vip(0x14000000 + uint32(rng.Intn(200)))
				if v.backendIdx(d) < 0 {
					v.Backends = append(v.Backends, Backend{Addr: d, Weight: 1})
					sortBackends(v)
				} else {
					v.Backends[v.backendIdx(d)].Weight++
				}
			}
		case 5:
			if len(v.Backends) > 0 {
				b := v.Backends[rng.Intn(len(v.Backends))]
				blk := SNATBlock{DIP: b.Addr, Lo: uint16(32768 + 1024*rng.Intn(16))}
				blk.Hi = blk.Lo + 1023
				if i := v.snatIdx(blk); i >= 0 {
					v.SNAT = append(v.SNAT[:i], v.SNAT[i+1:]...)
				} else {
					v.SNAT = append(v.SNAT, blk)
					sortSNAT(v)
				}
			}
		}
	}
	s.Epoch++
}

func TestDiffApplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a := randState(rng, 1+rng.Intn(10))
		b := a.Clone()
		for n := rng.Intn(8); n >= 0; n-- {
			mutate(rng, b)
		}
		d := Diff(a, b)
		got := a.Clone()
		if err := d.Apply(got); err != nil {
			t.Fatalf("iter %d: apply: %v", iter, err)
		}
		if !got.Equal(b) {
			t.Fatalf("iter %d: Apply(Diff(a,b)) != b", iter)
		}
		// Invert rolls back.
		inv, err := d.Invert()
		if err != nil {
			t.Fatalf("iter %d: invert: %v", iter, err)
		}
		if err := inv.Apply(got); err != nil {
			t.Fatalf("iter %d: apply inverse: %v", iter, err)
		}
		if !got.Equal(a) {
			t.Fatalf("iter %d: Apply(Invert) did not restore a", iter)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		a := randState(rng, 1+rng.Intn(8))
		b := a.Clone()
		for n := rng.Intn(6); n >= 0; n-- {
			mutate(rng, b)
		}
		for _, d := range []*Delta{Diff(a, b), SnapshotOf(b)} {
			enc := d.Encode()
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("iter %d: decode: %v", iter, err)
			}
			if !reflect.DeepEqual(d, got) {
				t.Fatalf("iter %d: decode(encode) mismatch\n got %+v\nwant %+v", iter, got, d)
			}
			// Determinism: same delta, same bytes.
			if enc2 := got.Encode(); string(enc2) != string(enc) {
				t.Fatalf("iter %d: encoding not deterministic", iter)
			}
		}
	}
}

func TestDiffCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randState(rng, 12)
	b := a.Clone()
	for n := 0; n < 10; n++ {
		mutate(rng, b)
	}
	// Rebuilding the same logical states in different map insertion orders
	// must yield byte-identical diffs.
	rebuild := func(s *State) *State {
		c := NewState()
		c.Epoch = s.Epoch
		addrs := s.Addrs()
		for i := len(addrs) - 1; i >= 0; i-- {
			c.VIPs[addrs[i]] = s.VIPs[addrs[i]].Clone()
		}
		return c
	}
	d1 := Diff(a, b).Encode()
	d2 := Diff(rebuild(a), rebuild(b)).Encode()
	if string(d1) != string(d2) {
		t.Fatal("Diff is sensitive to map construction order")
	}
}

func TestApplyRejectsDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randState(rng, 5)
	b := a.Clone()
	mutate(rng, b)
	d := Diff(a, b)
	if len(d.Ops) == 0 {
		t.Skip("empty mutation")
	}
	// Wrong epoch.
	bad := a.Clone()
	bad.Epoch += 7
	if err := d.Apply(bad); err == nil {
		t.Fatal("apply accepted wrong FromEpoch")
	}
	// Diverged state: applying the same delta twice must fail (the ops'
	// preconditions no longer hold).
	once := a.Clone()
	if err := d.Apply(once); err != nil {
		t.Fatal(err)
	}
	once.Epoch = a.Epoch // lie about the epoch; preconditions still catch it
	if err := d.Apply(once); err == nil {
		t.Fatal("apply accepted a diverged state")
	}
}

// TestApplyIsAllOrNothing cuts random diffs at every op boundary, follows
// the applied prefix with an op whose precondition cannot hold, and checks
// that the failed Apply — diff or snapshot — leaves the state as it found it.
func TestApplyIsAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	poison := Op{Kind: OpMode, VIP: vip(0x0B000001)} // outside randState's address range
	for iter := 0; iter < 100; iter++ {
		a := randState(rng, 1+rng.Intn(10))
		b := a.Clone()
		for n := rng.Intn(8); n >= 0; n-- {
			mutate(rng, b)
		}
		d := Diff(a, b)
		for k := 0; k <= len(d.Ops); k++ {
			bad := &Delta{FromEpoch: d.FromEpoch, ToEpoch: d.ToEpoch}
			bad.Ops = append(append(bad.Ops, d.Ops[:k]...), poison)
			got := a.Clone()
			if err := bad.Apply(got); err == nil {
				t.Fatalf("iter %d cut %d: poisoned delta applied", iter, k)
			}
			if !got.Equal(a) {
				t.Fatalf("iter %d cut %d: failed Apply left %d of %d ops behind", iter, k, k, len(bad.Ops))
			}
			if err := d.Apply(got); err != nil || !got.Equal(b) {
				t.Fatalf("iter %d cut %d: the correct delta no longer applies after the rejection: %v", iter, k, err)
			}
		}
		snap := SnapshotOf(b)
		snap.Ops = append(snap.Ops, poison)
		got := a.Clone()
		if err := snap.Apply(got); err == nil {
			t.Fatalf("iter %d: poisoned snapshot applied", iter)
		}
		if !got.Equal(a) {
			t.Fatalf("iter %d: failed snapshot replaced the previous state", iter)
		}
	}
}

func TestSnapshotApply(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randState(rng, 8)
	s.Epoch = 42
	snap := SnapshotOf(s)
	if !snap.Snapshot || snap.FromEpoch != 0 || snap.ToEpoch != 42 {
		t.Fatalf("bad snapshot framing: %+v", snap)
	}
	// A snapshot applies onto ANY state, including a diverged one.
	tgt := randState(rng, 4)
	tgt.Epoch = 99
	if err := snap.Apply(tgt); err != nil {
		t.Fatal(err)
	}
	if !tgt.Equal(s) {
		t.Fatal("snapshot apply did not reproduce the source state")
	}
	if _, err := snap.Invert(); err == nil {
		t.Fatal("snapshot delta must not invert")
	}
}

func TestLogReplayAndCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLog(4)
	cur := NewState()
	var states []*State // state at each epoch, index = epoch
	states = append(states, cur.Clone())
	for e := 0; e < 12; e++ {
		next := cur.Clone()
		mutate(rng, next) // bumps epoch by 1
		if err := l.Append(Diff(cur, next), nil); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		cur = next
		states = append(states, cur.Clone())
	}
	if got := l.HeadEpoch(); got != 12 {
		t.Fatalf("head epoch = %d, want 12", got)
	}
	if got := l.Horizon(); got != 8 {
		t.Fatalf("horizon = %d, want 8 (maxTail 4)", got)
	}
	if got := len(l.tail); got != 4 {
		t.Fatalf("tail = %d, want 4", got)
	}
	// Replay from every epoch at or above the horizon reaches the head.
	head := l.Head()
	for from := uint64(8); from <= 12; from++ {
		es, ok := l.Since(from)
		if !ok {
			t.Fatalf("Since(%d) refused above the horizon", from)
		}
		replay := states[from].Clone()
		for _, e := range es {
			d, err := Decode(e.Enc) // what a follower is shipped
			if err != nil {
				t.Fatalf("replay from %d: decode: %v", from, err)
			}
			if err := d.Apply(replay); err != nil {
				t.Fatalf("replay from %d: %v", from, err)
			}
		}
		if !replay.Equal(head) {
			t.Fatalf("replay from %d diverged from head", from)
		}
	}
	// Below the horizon: snapshot required.
	if _, ok := l.Since(7); ok {
		t.Fatal("Since below the horizon must fail")
	}
	snap := l.Snapshot()
	blank := NewState()
	if err := snap.Apply(blank); err != nil {
		t.Fatal(err)
	}
	if !blank.Equal(head) {
		t.Fatal("snapshot replay diverged from head")
	}
}

func TestLogRejectsGaps(t *testing.T) {
	l := NewLog(0)
	a := NewState()
	b := a.Clone()
	b.VIPs[vip(1)] = &VIPState{Addr: vip(1), Switch: Unassigned}
	b.Epoch = 1
	if err := l.Append(Diff(a, b), nil); err != nil {
		t.Fatal(err)
	}
	// Re-appending the same delta is a gap (FromEpoch 0 != head 1).
	if err := l.Append(Diff(a, b), nil); err == nil {
		t.Fatal("log accepted a non-contiguous append")
	}
	// Epoch must advance.
	c := b.Clone()
	if err := l.Append(Diff(b, c), nil); err == nil {
		t.Fatal("log accepted a non-advancing delta")
	}
	// Snapshots don't append.
	if err := l.Append(l.Snapshot(), nil); err == nil {
		t.Fatal("log accepted a snapshot append")
	}
}

// Equal reports deep equality including the epoch: the oracle of the
// round-trip, replay and fuzz tests.
func (s *State) Equal(o *State) bool {
	if s.Epoch != o.Epoch || len(s.VIPs) != len(o.VIPs) {
		return false
	}
	for a, v := range s.VIPs {
		ov, ok := o.VIPs[a]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}
