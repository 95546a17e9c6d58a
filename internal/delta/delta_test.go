package delta

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
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
		Flags:  FlagNic * uint8(rng.Intn(2)),
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
	return v
}

// backendIdx returns the index of dip in the sorted backend slice, or -1.
func (v *VIPState) backendIdx(dip packet.Addr) int {
	i := sort.Search(len(v.Backends), func(i int) bool { return v.Backends[i].Addr >= dip })
	if i < len(v.Backends) && v.Backends[i].Addr == dip {
		return i
	}
	return -1
}

func sortBackends(v *VIPState) {
	for i := 1; i < len(v.Backends); i++ {
		for j := i; j > 0 && v.Backends[j].Addr < v.Backends[j-1].Addr; j-- {
			v.Backends[j], v.Backends[j-1] = v.Backends[j-1], v.Backends[j]
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
		switch rng.Intn(5) {
		case 0:
			delete(s.VIPs, a)
		case 1:
			v.Mode = steer.Mode(rng.Intn(3))
		case 2:
			v.Flags = FlagNic * uint8(rng.Intn(2))
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
		// The reverse diff rolls back.
		if err := Diff(b, a).Apply(got); err != nil {
			t.Fatalf("iter %d: apply reverse diff: %v", iter, err)
		}
		if !got.Equal(a) {
			t.Fatalf("iter %d: Apply(Diff(b,a)) did not restore a", iter)
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
			// Version 1 carried SNAT grants and version 2 per-field op
			// kinds; their bytes are refused, not misread.
			for _, ver := range []byte{1, 2} {
				old := append([]byte(nil), enc...)
				old[1] = ver
				if _, err := Decode(old); !errors.Is(err, ErrCodec) {
					t.Fatalf("iter %d: a version-%d encoding decoded: %v", iter, ver, err)
				}
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
	for len(d.Ops) == 0 { // a mutation can redraw what was there
		mutate(rng, b)
		d = Diff(a, b)
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

// TestApplyRefusesMalformedOps: a hand-built delta that lists a VIP twice,
// lists VIPs out of order, has an op with neither state or has a state for
// another VIP is refused whole, and the state is left as it was.
func TestApplyRefusesMalformedOps(t *testing.T) {
	st := func(a uint32) *VIPState {
		return &VIPState{Addr: vip(a), Switch: Unassigned, Backends: []Backend{{Addr: vip(0x14000001), Weight: 1}}}
	}
	base := NewState()
	base.Epoch = 1
	base.VIPs[vip(1)] = st(1)
	for _, tc := range []struct {
		name string
		ops  []Op
	}{
		{"one VIP twice", []Op{{VIP: vip(3), New: st(3)}, {VIP: vip(3), New: st(3)}}},
		{"out of order", []Op{{VIP: vip(4), New: st(4)}, {VIP: vip(3), New: st(3)}}},
		{"neither state", []Op{{VIP: vip(3), New: st(3)}, {VIP: vip(4)}}},
		{"new state for another VIP", []Op{{VIP: vip(3), New: st(4)}}},
		{"old state for another VIP", []Op{{VIP: vip(1), Old: st(2), New: st(1)}}},
	} {
		got := base.Clone()
		if err := (&Delta{FromEpoch: 1, ToEpoch: 2, Ops: tc.ops}).Apply(got); err == nil {
			t.Errorf("%s: applied", tc.name)
		}
		if !got.Equal(base) {
			t.Errorf("%s: the refused delta changed the state", tc.name)
		}
	}
}

// TestDecodeRefusesMalformedOps: the decoder refuses an op with neither
// state or with an unknown presence bit, a snapshot op that carries an old
// state, and ops out of address order — none of which Diff produces.
func TestDecodeRefusesMalformedOps(t *testing.T) {
	st := func(a uint32) *VIPState { return &VIPState{Addr: vip(a), Switch: Unassigned} }
	badBit := (&Delta{ToEpoch: 1, Ops: []Op{{VIP: vip(1), New: st(1)}}}).Encode()
	badBit[7] |= 1 << 2 // magic, version, flags, from, to, count, VIP: then the presence byte
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"zero presence byte", (&Delta{ToEpoch: 1, Ops: []Op{{VIP: vip(1)}}}).Encode()},
		{"unknown presence bit", badBit},
		{"snapshot op with an old state", (&Delta{Snapshot: true, ToEpoch: 1, Ops: []Op{{VIP: vip(1), Old: st(1), New: st(1)}}}).Encode()},
		{"out of order", (&Delta{ToEpoch: 1, Ops: []Op{{VIP: vip(2), New: st(2)}, {VIP: vip(1), New: st(1)}}}).Encode()},
		{"one VIP twice", (&Delta{ToEpoch: 1, Ops: []Op{{VIP: vip(1), New: st(1)}, {VIP: vip(1), New: st(1)}}}).Encode()},
	} {
		if _, err := Decode(tc.enc); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: want ErrCodec, got %v", tc.name, err)
		}
	}
}

// TestApplyIsAllOrNothing cuts random diffs at every op boundary, follows
// the prefix with an op whose precondition cannot hold, and checks that the
// failed Apply — diff or snapshot — leaves the state as it found it.
func TestApplyIsAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// An old state for a VIP outside randState's address range: the state
	// does not hold it.
	poison := Op{VIP: vip(0x0B000001), Old: &VIPState{Addr: vip(0x0B000001), Switch: Unassigned}}
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

	// Reset (a standby replaying a snapshot): the log restarts at the
	// state's epoch with nothing to replay below it, then compacts again.
	reset := states[5]
	l.Reset(reset)
	if got := l.Horizon(); got != reset.Epoch {
		t.Fatalf("horizon after Reset = %d, want %d", got, reset.Epoch)
	}
	if es, ok := l.Since(reset.Epoch); !ok || len(es) != 0 {
		t.Fatalf("Since(%d) after Reset = %d entries, %v; want none, ok", reset.Epoch, len(es), ok)
	}
	if _, ok := l.Since(reset.Epoch - 1); ok {
		t.Fatal("Since below the reset horizon must fail")
	}
	cur = reset.Clone()
	for e := 0; e < 8; e++ {
		horizon := l.Horizon()
		if len(l.tail) == 4 {
			horizon = l.tail[0].To // the entry this append drops
		}
		next := cur.Clone()
		mutate(rng, next)
		if err := l.Append(Diff(cur, next), nil); err != nil {
			t.Fatalf("append %d after Reset: %v", e, err)
		}
		cur = next
		if got := l.Horizon(); got != horizon {
			t.Fatalf("append %d after Reset: horizon = %d, want %d", e, got, horizon)
		}
		if got, want := len(l.tail), min(e+1, 4); got != want {
			t.Fatalf("append %d after Reset: tail = %d, want %d", e, got, want)
		}
	}
	if got := l.Horizon(); got != reset.Epoch+4 {
		t.Fatalf("horizon after 8 appends = %d, want %d", got, reset.Epoch+4)
	}
	if !l.Head().Equal(cur) {
		t.Fatal("appends after Reset diverged from the head")
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
