package steer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/packet"
)

// pinUniverse is the flows the model runs draw from: few enough that inserts
// collide, fill the table and share shards.
var pinUniverse = func() []packet.FiveTuple {
	out := make([]packet.FiveTuple, 24)
	for i := range out {
		out[i] = packet.FiveTuple{
			Src: packet.AddrFrom4(20, 0, 0, byte(i)), Dst: packet.AddrFrom4(10, 0, 0, byte(1+i%3)),
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: packet.ProtoTCP,
		}
	}
	return out
}()

// wrapUniverse is 64 flows whose hashes all pick shard 0 and put their
// home in the last 8 slots of every table size up to 128: they form one
// probe run that wraps past the array's end, and together they grow the
// shard from 8 slots through four doublings. Their VIPs alternate, so
// purging one VIP drops every other flow.
var wrapUniverse = func() []packet.FiveTuple {
	var out []packet.FiveTuple
	for i := uint32(0); len(out) < 64; i++ {
		tu := packet.FiveTuple{
			Src: packet.Addr(0x14000000 + i), Dst: packet.AddrFrom4(10, 0, 0, byte(1+len(out)%2)),
			SrcPort: 1024, DstPort: 80, Proto: packet.ProtoTCP,
		}
		if h := ecmp.Hash(tu); h>>48&(pinShards-1) == 0 && h&0x78 == 0x78 {
			out = append(out, tu)
		}
	}
	return out
}()

// pinModel is what a Pins table holds, written the plain way: one map and
// its length against a cap.
type pinModel struct {
	pins map[packet.FiveTuple]pin
	cap  int
	ttl  float64
}

func (m *pinModel) deadline(now float64, flags uint8) float64 {
	switch {
	case m.ttl <= 0:
		return math.Inf(1)
	case flags&(packet.TCPFin|packet.TCPRst) != 0:
		return now + DefaultFinLinger
	}
	return now + m.ttl
}

// runPins drives a Pins table and the model through the operations data
// encodes, and fails at the first answer or state where they differ. The
// first byte picks the instance — an SMux-style table with a ttl or a
// NIC-style one that never expires —, the flows (pinUniverse or
// wrapUniverse) and the first cap. It reports how often the cap sat below
// the count when an insert came.
func runPins(t *testing.T, data []byte) (underCap int) {
	t.Helper()
	if len(data) == 0 {
		return 0
	}
	ttl := 60.0
	if data[0]&1 == 0 {
		ttl = 0
	}
	u := pinUniverse
	if data[0]&2 != 0 {
		u = wrapUniverse
	}
	limit := int(data[0]>>2) % (len(u) + 1)
	p := NewPins(ttl, limit)
	m := &pinModel{pins: map[packet.FiveTuple]pin{}, cap: limit, ttl: ttl}
	now := 0.0
	flagsOf := func(b byte) uint8 {
		return [4]uint8{packet.TCPAck, packet.TCPSyn, packet.TCPFin | packet.TCPAck, packet.TCPRst}[b%4]
	}
	for i := 1; i+2 < len(data); i += 3 {
		op, a, b := data[i]%6, data[i+1], data[i+2]
		tu := u[int(a)%len(u)]
		h := ecmp.Hash(tu)
		switch op {
		case 0: // hit
			d, ok := p.Hit(tu, h, now, flagsOf(b))
			e, want := m.pins[tu]
			if want && m.ttl > 0 && (flagsOf(b)&(packet.TCPFin|packet.TCPRst) != 0 || e.expireAt < now+m.ttl/2) {
				e.expireAt = m.deadline(now, flagsOf(b))
				m.pins[tu] = e
			}
			if ok != want || d != e.dip {
				t.Fatalf("op %d: Hit(%v) = %v, %v; model %v, %v", i, tu, d, ok, e.dip, want)
			}
		case 1: // insert
			dip := packet.AddrFrom4(100, 0, 0, 1+b%4)
			d, how := p.Insert(tu, h, dip, now, flagsOf(b>>2))
			wantD, wantHow := dip, PinAdded
			if len(m.pins) > m.cap {
				underCap++
			}
			if e, ok := m.pins[tu]; len(m.pins) >= m.cap {
				wantHow = PinRefused
			} else if ok {
				wantD, wantHow = e.dip, PinFound
			} else {
				m.pins[tu] = pin{dip: dip, expireAt: m.deadline(now, flagsOf(b>>2))}
			}
			if d != wantD || how != wantHow {
				t.Fatalf("op %d: Insert(%v, %v) = %v, %v; model %v, %v", i, tu, dip, d, how, wantD, wantHow)
			}
		case 2: // purge a VIP, or one DIP of it
			vip, dip := tu.Dst, packet.Addr(0)
			if b&1 != 0 {
				dip = packet.AddrFrom4(100, 0, 0, 1+b%4)
			}
			gone := func(t packet.FiveTuple, d packet.Addr) bool { return t.Dst == vip && (dip == 0 || d == dip) }
			want := 0
			for t, e := range m.pins {
				if gone(t, e.dip) {
					delete(m.pins, t)
					want++
				}
			}
			if got := p.Purge(gone); got != want {
				t.Fatalf("op %d: Purge = %d, model %d", i, got, want)
			}
		case 3: // sweep, keeping every pin or only odd DIPs
			var keep func(packet.FiveTuple, packet.Addr) bool
			if b&1 != 0 {
				keep = func(_ packet.FiveTuple, d packet.Addr) bool { return d&1 != 0 }
			}
			want := 0
			for t, e := range m.pins {
				if e.expireAt <= now || (keep != nil && !keep(t, e.dip)) {
					delete(m.pins, t)
					want++
				}
			}
			if got := p.Sweep(now, keep); got != want {
				t.Fatalf("op %d: Sweep(%v) = %d, model %d", i, now, got, want)
			}
		case 4: // recap, below the count too
			m.cap = int(b) % (len(u) + 1)
			p.SetCap(m.cap)
		case 5: // time passes
			now += float64(b % 64)
		}
		checkPins(t, i, p, m, u)
	}
	return underCap
}

// checkPins compares the table's state with the model's: the same pins with
// the same deadlines, each in its hash's shard under its hash's tag, shards
// a power of two in size and at most 7/8 full, the room left and the bytes
// held, and every flow of u found by Get exactly when the model pins it.
func checkPins(t *testing.T, i int, p *Pins, m *pinModel, u []packet.FiveTuple) {
	t.Helper()
	n, bytes := 0, int64(0)
	for k := range p.shards {
		s := &p.shards[k]
		held := 0
		for j, c := range s.ctrl {
			if c == 0 {
				continue
			}
			held++
			tu, e := s.slots[j].t, s.slots[j].pin
			if h := ecmp.Hash(tu); int(h>>48)&(pinShards-1) != k || c != tagOf(h) {
				t.Fatalf("op %d: %v in shard %d under tag %#x", i, tu, k, c)
			}
			if w, ok := m.pins[tu]; !ok || w != e {
				t.Fatalf("op %d: table holds %v → %+v, model %+v (%v)", i, tu, e, w, ok)
			}
		}
		size := len(s.ctrl)
		if held != s.n || len(s.slots) != size || size < minSlots || size&(size-1) != 0 || 8*held > 7*size {
			t.Fatalf("op %d: shard %d holds %d (counted %d) in %d/%d slots", i, k, held, s.n, size, len(s.slots))
		}
		n += held
		bytes += int64(size) * 33
	}
	if got, _ := p.Occupancy(); got != len(m.pins) || n != len(m.pins) {
		t.Fatalf("op %d: occupancy %d (%d in shards), model %d", i, got, n, len(m.pins))
	}
	if free := p.free.Load(); free != int64(m.cap-len(m.pins)) {
		t.Fatalf("op %d: free %d, model cap %d − count %d", i, free, m.cap, len(m.pins))
	}
	if got := p.Bytes(); got != bytes {
		t.Fatalf("op %d: Bytes %d, slots × 33 B %d", i, got, bytes)
	}
	for _, tu := range u {
		d, ok := p.Get(tu, ecmp.Hash(tu))
		if w, want := m.pins[tu]; ok != want || d != w.dip {
			t.Fatalf("op %d: Get(%v) = %v, %v; model %v, %v", i, tu, d, ok, w.dip, want)
		}
	}
}

// wrapSeed is an operation sequence over wrapUniverse: raise the cap to
// every flow, pin them all (shard 0 grows from 8 slots to 128), purge one
// VIP — every other flow of the wrapping run —, sweep the even DIPs —
// every other flow left —, let the rest expire (when the table has a ttl)
// and pin every flow again.
func wrapSeed(ttl byte) []byte {
	data := []byte{2 | ttl, 4, 0, byte(len(wrapUniverse))}
	pinAll := func() {
		for k := range wrapUniverse {
			data = append(data, 1, byte(k), byte(k/2%2))
		}
	}
	pinAll()
	data = append(data, 2, 1, 0, 3, 0, 1, 5, 0, 63, 5, 0, 63, 3, 0, 0)
	pinAll()
	return data
}

// TestPinsAgainstModel runs seeded random operation sequences on both
// instance kinds against the plain-map model.
func TestPinsAgainstModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	under := 0
	for run := 0; run < 400; run++ {
		data := make([]byte, 1+3*300)
		r.Read(data)
		under += runPins(t, data)
	}
	for ttl := byte(0); ttl < 2; ttl++ {
		runPins(t, wrapSeed(ttl))
	}
	if under == 0 {
		t.Fatal("vacuous: no insert met a cap below the count")
	}
}

// FuzzPins is TestPinsAgainstModel over fuzzer-chosen operation sequences.
func FuzzPins(f *testing.F) {
	f.Add([]byte{0x31, 1, 0, 0, 1, 1, 0, 0, 0, 0, 5, 63, 0, 3, 0, 0})
	f.Add([]byte{0x30, 1, 2, 1, 4, 0, 0, 1, 3, 1, 2, 3, 1})
	f.Add(wrapSeed(0))
	f.Add(wrapSeed(1))
	f.Fuzz(func(t *testing.T, data []byte) { runPins(t, data) })
}

// TestPinsZeroAlloc: a hit (refreshing or not), an insert a full table
// refuses and an insert that does not grow its shard allocate nothing.
func TestPinsZeroAlloc(t *testing.T) {
	tu := pinUniverse[0]
	h := ecmp.Hash(tu)
	p := NewPins(60, 1)
	if _, how := p.Insert(tu, h, 7, 0, packet.TCPSyn); how != PinAdded {
		t.Fatal(how)
	}
	now := 0.0
	if n := testing.AllocsPerRun(500, func() {
		now += 40 // every other hit refreshes
		if _, ok := p.Hit(tu, h, now, packet.TCPAck); !ok {
			t.Fatal("pin lost")
		}
	}); n != 0 {
		t.Fatalf("Hit: %v allocs/op", n)
	}
	other := pinUniverse[1]
	oh := ecmp.Hash(other)
	if n := testing.AllocsPerRun(500, func() {
		if _, how := p.Insert(other, oh, 8, now, packet.TCPSyn); how != PinRefused {
			t.Fatal(how)
		}
	}); n != 0 {
		t.Fatalf("refused Insert: %v allocs/op", n)
	}
	q := NewPins(60, 1)
	if n := testing.AllocsPerRun(500, func() {
		if _, how := q.Insert(other, oh, 8, now, packet.TCPFin); how != PinAdded {
			t.Fatal(how)
		}
		q.Sweep(now+DefaultFinLinger, nil)
	}); n != 0 {
		t.Fatalf("Insert: %v allocs/op", n)
	}
}

// TestPinsProbeLength fills one shard to 7/8 of 2^16 slots — the most it
// holds before it doubles — with random flows through Insert, and measures
// how far each pin's probe runs from its home. Linear probing under a
// uniform hash at load α reads (1 + 1/(1−α))/2 slots per hit on average,
// 4.5 at 7/8, and its longest run at this size is a few hundred slots
// (about 300–400 for five seeds). A weak low half of ecmp.Hash clusters
// homes and fails both bounds.
func TestPinsProbeLength(t *testing.T) {
	const size = 1 << 16
	p := NewPins(0, size)
	s := &p.shards[0]
	r := rand.New(rand.NewSource(1))
	for s.n < size-size/8 {
		tu := packet.FiveTuple{
			Src: packet.Addr(r.Uint32()), Dst: packet.Addr(r.Uint32()),
			SrcPort: uint16(r.Uint32()), DstPort: uint16(r.Uint32()), Proto: packet.ProtoTCP,
		}
		if h := ecmp.Hash(tu); h>>48&(pinShards-1) == 0 {
			p.Insert(tu, h, 1, 0, packet.TCPSyn)
		}
	}
	if len(s.ctrl) != size {
		t.Fatalf("%d pins in %d slots", s.n, len(s.ctrl))
	}
	sum, longest := 0, 0
	for j, c := range s.ctrl {
		if c != 0 {
			probe := (j-int(ecmp.Hash(s.slots[j].t)))&(size-1) + 1
			sum += probe
			longest = max(longest, probe)
		}
	}
	if mean := float64(sum) / float64(s.n); mean > 5 || longest > 1024 {
		t.Fatalf("probe: mean %.2f slots, longest %d", mean, longest)
	}
}

// BenchmarkPins is a hit and a miss at the three sizes the muxes run: the
// NIC's flow region (4 Ki), the hybrid overlay's cap (64 Ki) and the
// connection table's (1 Mi), each over its flows in permuted order.
func BenchmarkPins(b *testing.B) {
	type flow struct {
		t packet.FiveTuple
		h uint64
	}
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		r := rand.New(rand.NewSource(1))
		in, out := make([]flow, n), make([]flow, n)
		for i := range in {
			tu := packet.FiveTuple{Src: packet.Addr(i), Dst: packet.Addr(r.Uint32()), SrcPort: uint16(r.Uint32()), DstPort: 80, Proto: packet.ProtoTCP}
			in[i] = flow{tu, ecmp.Hash(tu)}
			tu.Src = packet.Addr(n + i)
			out[i] = flow{tu, ecmp.Hash(tu)}
		}
		p := NewPins(0, n)
		for _, f := range in {
			p.Insert(f.t, f.h, 1, 0, packet.TCPSyn)
		}
		r.Shuffle(n, func(i, j int) { in[i], in[j] = in[j], in[i] })
		for _, c := range []struct {
			name  string
			flows []flow
		}{{"hit", in}, {"miss", out}} {
			b.Run(fmt.Sprintf("%s/flows=%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f := &c.flows[i&(n-1)]
					if _, ok := p.Hit(f.t, f.h, 0, packet.TCPAck); ok != (c.name == "hit") {
						b.Fatal(ok)
					}
				}
			})
		}
	}
}
