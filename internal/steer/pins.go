package steer

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"duet/internal/ecmp"
	"duet/internal/packet"
)

// DefaultFinLinger is how long a pin outlives a FIN or RST: just long enough
// for the closing handshake's stragglers, then the slot frees — so closed
// flows do not hold table memory for a whole idle window.
const DefaultFinLinger = 15.0

// pinShards is the pin-table shard count. Power of two; a flow's shard is
// the top bits of its ECMP hash, so shard choice stays independent of the
// slot an Entry picks from the low bits of the same hash.
const pinShards = 16

// minSlots is a shard's first table size. A shard doubles when an insert
// would take it past 7/8 load, and never shrinks.
const minSlots = 8

// pin is one pinned flow: its DIP and the clock reading it expires at.
type pin struct {
	dip      packet.Addr
	expireAt float64
}

// slot is one position of a shard's table: a flow and its pin, 32 B and
// free of pointers, so the collector never scans a table.
type slot struct {
	t packet.FiveTuple
	pin
}

// slotBytes is what one slot costs: the slot and its control byte.
const slotBytes = int64(unsafe.Sizeof(slot{})) + 1

// pinShard is one lock-striped slice of a Pins table: an open-addressed
// table probed linearly from the flow hash's low bits. ctrl[i] is 0 for an
// empty slot, else the tag 0x80 | the hash's top 7 bits, so a probe reads
// control bytes and compares a slot's flow only on a tag match. A flow's
// packets always serialize on the same shard. Its 64 B fill a cache line,
// which curbs false sharing.
type pinShard struct {
	mu    sync.Mutex
	n     int // pins held
	ctrl  []uint8
	slots []slot
}

// tagOf is a flow hash's control byte.
//
//duet:hotpath
func tagOf(h uint64) uint8 { return 0x80 | uint8(h>>57) }

// find returns the slot that holds t or, with false, the empty slot that
// ends t's probe run, where an insert puts it. A shard never fills, so the
// probe ends.
//
//duet:hotpath
func (s *pinShard) find(t packet.FiveTuple, h uint64) (int, bool) {
	mask := len(s.ctrl) - 1
	tag := tagOf(h)
	for i := int(h) & mask; ; i = (i + 1) & mask {
		switch s.ctrl[i] {
		case 0:
			return i, false
		case tag:
			if s.slots[i].t == t {
				return i, true
			}
		}
	}
}

// grow doubles the shard's table and places every pin again. Slots do not
// store the hash: ecmp.Hash(t) recomputes it, which is the h of every call.
func (s *pinShard) grow() {
	ctrl, slots := s.ctrl, s.slots
	s.ctrl, s.slots = make([]uint8, 2*len(ctrl)), make([]slot, 2*len(slots))
	for i, c := range ctrl {
		if c != 0 {
			j, _ := s.find(slots[i].t, ecmp.Hash(slots[i].t))
			s.ctrl[j], s.slots[j] = c, slots[i]
		}
	}
}

// del empties slot i by backward shift, leaving no tombstone: each later
// member of its probe run whose home is not cyclically in (hole, j] moves
// into the hole, and its slot becomes the hole.
func (s *pinShard) del(i int) {
	mask := len(s.ctrl) - 1
	for j := (i + 1) & mask; s.ctrl[j] != 0; j = (j + 1) & mask {
		home := int(ecmp.Hash(s.slots[j].t)) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.ctrl[i], s.slots[i] = s.ctrl[j], s.slots[j]
			i = j
		}
	}
	s.ctrl[i] = 0
	s.n--
}

// PinOutcome is what Insert did.
type PinOutcome uint8

const (
	// PinAdded: the flow is pinned to the DIP the caller passed.
	PinAdded PinOutcome = iota
	// PinFound: the flow was pinned already; Insert returned that pin.
	PinFound
	// PinRefused: the table is full and nothing was pinned; Insert
	// returned the caller's DIP.
	PinRefused
)

// Pins is the per-flow half of steering: a table that pins a 5-tuple to the
// DIP its first packet resolved to, so later packets keep it across table
// epochs. Every host mux's per-flow state is one: the SMux connection table
// and hybrid overlay, the NIC's exact-flow region. It is sharded by flow
// hash with per-shard locks, and bounded by one table-wide cap: a full table
// refuses an insert rather than evict a pin, since evicting would move a live
// connection. Pins expire ttl seconds after their last packet (lazily
// refreshed, at most once per half ttl) or DefaultFinLinger after a FIN/RST;
// a ttl of 0 never expires. Safe for concurrent use.
//
// Each shard is a flat open-addressed table of 33 B slots (a 32 B flow and
// pin, one control byte); a growing shard is 7/16 to 7/8 full, 38–75 B per
// pin.
// Every h a method takes must be ecmp.Hash(t): a shard that grows or
// removes a pin recomputes it to find where each pin lives.
type Pins struct {
	shards [pinShards]pinShard
	// free is the cap less the pins held (reserved ones included), so a
	// full table is one load: free ≤ 0. It is below zero while the cap
	// sits under the count.
	free atomic.Int64
	cap  atomic.Int64
	ttl  float64
}

// NewPins returns an empty table whose pins expire ttl seconds after their
// last packet (0: never) and that holds at most limit pins.
func NewPins(ttl float64, limit int) *Pins {
	p := &Pins{ttl: ttl}
	for i := range p.shards {
		p.shards[i].ctrl, p.shards[i].slots = make([]uint8, minSlots), make([]slot, minSlots)
	}
	p.SetCap(limit)
	return p
}

// SetCap bounds the table at limit pins. A cap below the count removes no
// pin: inserts are refused until the count falls under it.
func (p *Pins) SetCap(limit int) {
	old := p.cap.Swap(int64(limit))
	p.free.Add(int64(limit) - old)
}

// shardFor returns the shard of a flow hash.
//
//duet:hotpath
func (p *Pins) shardFor(h uint64) *pinShard {
	return &p.shards[(h>>48)&(pinShards-1)]
}

// deadline is when a pin refreshed at now expires.
//
//duet:hotpath
func (p *Pins) deadline(now float64, flags uint8) float64 {
	switch {
	case p.ttl <= 0:
		return math.Inf(1)
	case flags&(packet.TCPFin|packet.TCPRst) != 0:
		return now + DefaultFinLinger
	}
	return now + p.ttl
}

// Hit returns the flow's pin, if it has one, and refreshes its deadline: a
// FIN/RST cuts it to the linger; otherwise it moves out to a full ttl once
// less than half is left, so most hits write nothing. flags are the packet's
// TCP flags. Zero allocations.
//
//duet:hotpath
func (p *Pins) Hit(t packet.FiveTuple, h uint64, now float64, flags uint8) (packet.Addr, bool) {
	s := p.shardFor(h)
	s.mu.Lock()
	i, ok := s.find(t, h)
	var dip packet.Addr
	if ok {
		e := &s.slots[i].pin
		if p.ttl > 0 && (flags&(packet.TCPFin|packet.TCPRst) != 0 || e.expireAt < now+p.ttl/2) {
			e.expireAt = p.deadline(now, flags)
		}
		dip = e.dip
	}
	s.mu.Unlock()
	return dip, ok
}

// Insert pins the flow to dip unless it is pinned already, and returns the
// DIP that serves it after the call: dip if it was added (or refused), the
// pin in place if one was found — so two first packets of a flow racing
// each other are served one DIP. A full table refuses on one atomic load,
// before it looks at the shard: a flow whose racing twin took the last
// slot keeps the caller's pick. Zero allocations unless the shard grows.
//
//duet:hotpath
func (p *Pins) Insert(t packet.FiveTuple, h uint64, dip packet.Addr, now float64, flags uint8) (packet.Addr, PinOutcome) {
	if p.free.Load() <= 0 {
		return dip, PinRefused
	}
	if p.free.Add(-1) < 0 { // a concurrent insert took the last slot
		p.free.Add(1)
		return dip, PinRefused
	}
	s := p.shardFor(h)
	s.mu.Lock()
	i, ok := s.find(t, h)
	if ok {
		d := s.slots[i].dip
		s.mu.Unlock()
		p.free.Add(1)
		return d, PinFound
	}
	if s.n >= len(s.ctrl)-len(s.ctrl)/8 {
		s.grow()
		i, _ = s.find(t, h)
	}
	s.ctrl[i], s.slots[i] = tagOf(h), slot{t, pin{dip: dip, expireAt: p.deadline(now, flags)}}
	s.n++
	s.mu.Unlock()
	return dip, PinAdded
}

// Get returns the flow's pin without refreshing it.
func (p *Pins) Get(t packet.FiveTuple, h uint64) (packet.Addr, bool) {
	s := p.shardFor(h)
	s.mu.Lock()
	i, ok := s.find(t, h)
	var dip packet.Addr
	if ok {
		dip = s.slots[i].dip
	}
	s.mu.Unlock()
	return dip, ok
}

// Purge removes the pins gone matches — a batch's steer.Gone — and returns
// how many went.
func (p *Pins) Purge(gone func(packet.FiveTuple, packet.Addr) bool) int {
	return p.remove(math.Inf(-1), gone, true)
}

// Sweep removes the pins whose deadline is at or before now and, when keep
// is not nil, the pins keep refuses; it returns how many went.
func (p *Pins) Sweep(now float64, keep func(packet.FiveTuple, packet.Addr) bool) int {
	return p.remove(now, keep, false)
}

// remove deletes the pins expired at now and those for which match returns
// drop, shard by shard. A removal may shift a pin not yet looked at into
// the slot it empties, so that slot is looked at again.
func (p *Pins) remove(now float64, match func(packet.FiveTuple, packet.Addr) bool, drop bool) int {
	freed := 0
	for k := range p.shards {
		s := &p.shards[k]
		s.mu.Lock()
		for i := 0; i < len(s.ctrl); {
			e := &s.slots[i]
			if s.ctrl[i] != 0 && (e.expireAt <= now || (match != nil && match(e.t, e.dip) == drop)) {
				s.del(i)
				freed++
				continue
			}
			i++
		}
		s.mu.Unlock()
	}
	p.free.Add(int64(freed))
	return freed
}

// Occupancy returns the pins held and the busiest shard's count.
func (p *Pins) Occupancy() (n, shardMax int) {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		k := s.n
		s.mu.Unlock()
		n += k
		shardMax = max(shardMax, k)
	}
	return n, shardMax
}

// Bytes returns the memory the table's arrays hold: every shard's slots,
// each a 32 B slot and its control byte.
func (p *Pins) Bytes() int64 {
	var n int64
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += int64(len(s.ctrl)) * slotBytes
		s.mu.Unlock()
	}
	return n
}
