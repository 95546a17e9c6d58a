package delta

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// served is everything a log hands out: the head as a snapshot, the head
// epoch, and every retained entry — its epochs and its stored bytes.
func served(l *Log) []byte {
	b := l.Snapshot().Encode()
	es, ok := l.Since(l.Horizon())
	if !ok {
		panic("Since(Horizon()) refused")
	}
	for _, e := range es {
		b = binary.AppendUvarint(b, e.From)
		b = binary.AppendUvarint(b, e.To)
		b = append(b, e.Enc...)
	}
	return binary.AppendUvarint(b, l.HeadEpoch())
}

// corrupt breaks one op's precondition: its old state becomes a backendless
// one, which the head does not hold (randVIP's VIPs keep a backend).
func corrupt(op *Op) {
	op.Old = &VIPState{Addr: op.VIP, Switch: Unassigned}
}

// TestAppendRejectLeavesHead: Append applies to the head in place, so a
// delta that fails part-way must leave the head, its epoch and every stored
// entry byte-identical — and the correct delta must still append after it.
func TestAppendRejectLeavesHead(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		l := NewLog(4)
		cur := NewState()
		for n := rng.Intn(10); n >= 0; n-- { // sometimes past the compaction horizon
			next := cur.Clone()
			mutate(rng, next)
			if err := l.Append(Diff(cur, next), nil); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			cur = next
		}
		next := cur.Clone()
		for n := rng.Intn(6); n >= 0; n-- {
			mutate(rng, next)
		}
		good := Diff(cur, next)
		if len(good.Ops) == 0 {
			continue
		}
		bad := &Delta{FromEpoch: good.FromEpoch, ToEpoch: good.ToEpoch, Ops: append([]Op(nil), good.Ops...)}
		at := rng.Intn(len(bad.Ops))
		corrupt(&bad.Ops[at])

		before := served(l)
		if err := l.Append(bad, nil); err == nil {
			t.Fatalf("iter %d: delta corrupted at op %d of %d appended", iter, at, len(bad.Ops))
		}
		if !bytes.Equal(served(l), before) {
			t.Fatalf("iter %d: a rejected append (op %d of %d) changed what the log serves", iter, at, len(bad.Ops))
		}
		if err := l.Append(good, nil); err != nil {
			t.Fatalf("iter %d: the correct delta no longer appends after the rejection: %v", iter, err)
		}
	}
}

// TestLogKeepsEncodings: every stored entry's bytes are the encoding of a
// delta from the entry's From to its To, whether the log encoded it (a
// leader) or kept the bytes it was pushed (a standby, whose receive buffer
// is reused after the call), and leader and standby serve the same bytes.
func TestLogKeepsEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	leader, standby := NewLog(4), NewLog(4)
	cur := NewState()
	for e := 0; e < 12; e++ {
		next := cur.Clone()
		mutate(rng, next)
		if err := leader.Append(Diff(cur, next), nil); err != nil {
			t.Fatal(err)
		}
		es, ok := leader.Since(cur.Epoch)
		if !ok || len(es) != 1 {
			t.Fatalf("epoch %d: Since(%d) = %d entries, %v", e, cur.Epoch, len(es), ok)
		}
		recv := bytes.Clone(es[0].Enc)
		d, err := Decode(recv)
		if err != nil {
			t.Fatal(err)
		}
		if err := standby.Append(d, recv); err != nil {
			t.Fatal(err)
		}
		clear(recv)
		cur = next
	}
	for name, l := range map[string]*Log{"leader": leader, "standby": standby} {
		es, _ := l.Since(l.Horizon())
		if len(es) != 4 {
			t.Fatalf("%s keeps %d entries, want the 4 of its tail", name, len(es))
		}
		for _, e := range es {
			d, err := Decode(e.Enc)
			if err != nil {
				t.Fatalf("%s: entry %d → %d: %v", name, e.From, e.To, err)
			}
			if d.Snapshot || d.FromEpoch != e.From || d.ToEpoch != e.To {
				t.Fatalf("%s: entry %d → %d holds a delta %d → %d (snapshot %v)", name, e.From, e.To, d.FromEpoch, d.ToEpoch, d.Snapshot)
			}
			if !bytes.Equal(d.Encode(), e.Enc) {
				t.Fatalf("%s: entry %d → %d does not re-encode to its own bytes", name, e.From, e.To)
			}
		}
	}
	if !bytes.Equal(served(leader), served(standby)) {
		t.Fatal("leader and standby serve different bytes")
	}
}

// BenchmarkLogAppend is one epoch of a 1,024-VIP × 8-backend log with a
// tenth of the VIPs' weights rotated, compaction included: the leader's
// append (apply at the head, encode once) and a standby's, minus the copy.
func BenchmarkLogAppend(b *testing.B) {
	s := NewState()
	s.Epoch = 1
	for i := 0; i < 1024; i++ {
		a := vip(0x0A000000 + uint32(i))
		v := &VIPState{Addr: a, Switch: Unassigned}
		for j := 0; j < 8; j++ {
			v.Backends = append(v.Backends, Backend{Addr: vip(0x64000000 + uint32(8*i+j)), Weight: 1})
		}
		s.VIPs[a] = v
	}
	next := s.Clone()
	next.Epoch = 2
	rng := rand.New(rand.NewSource(1))
	addrs := next.Addrs()
	for i := 0; i < len(addrs)/10; i++ {
		v := next.VIPs[addrs[rng.Intn(len(addrs))]]
		for j := range v.Backends {
			v.Backends[j].Weight = 1 + v.Backends[j].Weight%8
		}
	}
	fwd, back := Diff(s, next), Diff(next, s)
	l := NewLog(0)
	l.Reset(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := *fwd // forward and back, so the state toggles
		if i%2 == 1 {
			d = *back
		}
		d.FromEpoch, d.ToEpoch = uint64(i+1), uint64(i+2)
		if err := l.Append(&d, nil); err != nil {
			b.Fatal(err)
		}
	}
}
