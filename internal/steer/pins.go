package steer

import (
	"math"
	"sync"
	"sync/atomic"

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

// pin is one pinned flow: its DIP and the clock reading it expires at.
type pin struct {
	dip      packet.Addr
	expireAt float64
}

// pinShard is one lock-striped slice of a Pins table. A flow's packets
// always serialize on the same shard.
type pinShard struct {
	mu   sync.Mutex
	pins map[packet.FiveTuple]pin
	_    [48]byte // pad to a cache line to curb false sharing
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
		p.shards[i].pins = make(map[packet.FiveTuple]pin)
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
	e, ok := s.pins[t]
	if ok && p.ttl > 0 && (flags&(packet.TCPFin|packet.TCPRst) != 0 || e.expireAt < now+p.ttl/2) {
		e.expireAt = p.deadline(now, flags)
		s.pins[t] = e
	}
	s.mu.Unlock()
	return e.dip, ok
}

// Insert pins the flow to dip unless it is pinned already, and returns the
// DIP that serves it after the call: dip if it was added (or refused), the
// pin in place if one was found — so two first packets of a flow racing
// each other are served one DIP. A full table refuses on one atomic load,
// before it looks at the shard: a flow whose racing twin took the last
// slot keeps the caller's pick. Zero allocations (map growth aside).
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
	if e, ok := s.pins[t]; ok {
		s.mu.Unlock()
		p.free.Add(1)
		return e.dip, PinFound
	}
	s.pins[t] = pin{dip: dip, expireAt: p.deadline(now, flags)}
	s.mu.Unlock()
	return dip, PinAdded
}

// Get returns the flow's pin without refreshing it.
func (p *Pins) Get(t packet.FiveTuple, h uint64) (packet.Addr, bool) {
	s := p.shardFor(h)
	s.mu.Lock()
	e, ok := s.pins[t]
	s.mu.Unlock()
	return e.dip, ok
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
// drop, shard by shard.
func (p *Pins) remove(now float64, match func(packet.FiveTuple, packet.Addr) bool, drop bool) int {
	freed := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for t, e := range s.pins {
			if e.expireAt <= now || (match != nil && match(t, e.dip) == drop) {
				delete(s.pins, t)
				freed++
			}
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
		k := len(s.pins)
		s.mu.Unlock()
		n += k
		shardMax = max(shardMax, k)
	}
	return n, shardMax
}
