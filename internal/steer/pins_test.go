package steer

import (
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
// first byte picks the instance: an SMux-style table with a ttl or a
// NIC-style one that never expires. It reports how often the cap sat below
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
	limit := int(data[0]>>1) % (len(pinUniverse) + 1)
	p := NewPins(ttl, limit)
	m := &pinModel{pins: map[packet.FiveTuple]pin{}, cap: limit, ttl: ttl}
	now := 0.0
	flagsOf := func(b byte) uint8 {
		return [4]uint8{packet.TCPAck, packet.TCPSyn, packet.TCPFin | packet.TCPAck, packet.TCPRst}[b%4]
	}
	for i := 1; i+2 < len(data); i += 3 {
		op, a, b := data[i]%6, data[i+1], data[i+2]
		tu := pinUniverse[int(a)%len(pinUniverse)]
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
			m.cap = int(b) % (len(pinUniverse) + 1)
			p.SetCap(m.cap)
		case 5: // time passes
			now += float64(b % 64)
		}
		checkPins(t, i, p, m)
	}
	return underCap
}

// checkPins compares the table's state with the model's: the same pins with
// the same deadlines, each in its hash's shard, and the room left.
func checkPins(t *testing.T, i int, p *Pins, m *pinModel) {
	t.Helper()
	n := 0
	for s := range p.shards {
		for tu, e := range p.shards[s].pins {
			n++
			if int(ecmp.Hash(tu)>>48)&(pinShards-1) != s {
				t.Fatalf("op %d: %v in shard %d", i, tu, s)
			}
			if w, ok := m.pins[tu]; !ok || w != e {
				t.Fatalf("op %d: table holds %v → %+v, model %+v (%v)", i, tu, e, w, ok)
			}
		}
	}
	if got, _ := p.Occupancy(); got != len(m.pins) || n != len(m.pins) {
		t.Fatalf("op %d: occupancy %d (%d in shards), model %d", i, got, n, len(m.pins))
	}
	if free := p.free.Load(); free != int64(m.cap-len(m.pins)) {
		t.Fatalf("op %d: free %d, model cap %d − count %d", i, free, m.cap, len(m.pins))
	}
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
	if under == 0 {
		t.Fatal("vacuous: no insert met a cap below the count")
	}
}

// FuzzPins is TestPinsAgainstModel over fuzzer-chosen operation sequences.
func FuzzPins(f *testing.F) {
	f.Add([]byte{0x31, 1, 0, 0, 1, 1, 0, 0, 0, 0, 5, 63, 0, 3, 0, 0})
	f.Add([]byte{0x30, 1, 2, 1, 4, 0, 0, 1, 3, 1, 2, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) { runPins(t, data) })
}

// TestPinsZeroAlloc: a hit (refreshing or not) and an insert a full table
// refuses allocate nothing.
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
}
