package hostagent

import (
	"errors"
	"sync"
	"sync/atomic"

	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// SNAT errors.
var (
	ErrPortsExhausted = errors.New("hostagent: SNAT port range exhausted, request another from controller")
	ErrNoRange        = errors.New("hostagent: no SNAT port range assigned")
)

// snatShards stripes the allocated-port set by port number so concurrent
// outbound connection setups on the same host rarely contend. Power of two.
const snatShards = 8

type snatShard struct {
	mu   sync.Mutex
	used map[uint16]bool
}

// SNAT allocates source ports for outbound connections originating at a DIP
// (paper §5.2 "SNAT"). Ananta keeps SNAT state on the SMuxes; Duet cannot,
// because switches hold no connection state. Instead the host agent shares
// the HMux hash function: when a DIP opens an outbound connection through
// its VIP, the HA picks a source port such that the hash of the *inbound*
// response 5-tuple selects this DIP's slot — in the VIP's current
// steer.Entry, read out of the table the muxes resolve against — so response
// packets arriving at the HMux are tunneled straight back to us with no
// state, also after a DIP of the VIP was removed in place.
//
// The allocator is safe for concurrent callers: the assigned ranges are
// published copy-on-write, the used-port set is sharded by port with
// per-shard locks, and a port is probed and claimed under one shard lock so
// two goroutines can never claim the same port.
type SNAT struct {
	vip  packet.Addr
	self packet.Addr  // our DIP
	tbl  *steer.Table // the muxes' table, which holds the VIP's current slots

	rangesMu sync.Mutex
	ranges   atomic.Pointer[[]portRange]

	shards   [snatShards]snatShard
	usedN    atomic.Int64  // total allocated ports
	searched atomic.Uint64 // total candidate ports probed (diagnostics)

	telAllocs    telemetry.CounterShard
	telExhausted telemetry.CounterShard
	telRec       *telemetry.Recorder
	telNode      uint32
}

// SetTelemetry attaches the allocator to a metric registry and flight
// recorder; exhaustion is also recorded as an (unsampled) trace event, since
// it is the signal that triggers a range request to the controller.
func (s *SNAT) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder, node uint32) {
	s.telAllocs = reg.Counter("hostagent.snat.allocs").Shard()
	s.telExhausted = reg.Counter("hostagent.snat.exhausted").Shard()
	s.telRec = rec
	s.telNode = node
}

type portRange struct{ lo, hi uint16 }

// NewSNAT creates the allocator for one (VIP, DIP) pair that predicts a
// response's DIP through tbl, a steer table holding the VIP as the muxes do
// (an SMux's Steer(): in a cluster every SMux and switch holding a VIP
// installs one entry for it).
func NewSNAT(vip, self packet.Addr, tbl *steer.Table) *SNAT {
	s := &SNAT{vip: vip, self: self, tbl: tbl}
	for i := range s.shards {
		s.shards[i].used = make(map[uint16]bool)
	}
	s.ranges.Store(&[]portRange{})
	return s
}

// AssignRange hands the allocator a disjoint port range from the Duet
// controller. Ranges accumulate: when one is exhausted the HA asks the
// controller for another (paper §5.2).
func (s *SNAT) AssignRange(lo, hi uint16) {
	if hi < lo {
		lo, hi = hi, lo
	}
	s.rangesMu.Lock()
	defer s.rangesMu.Unlock()
	cur := *s.ranges.Load()
	next := make([]portRange, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = portRange{lo, hi}
	s.ranges.Store(&next)
}

func (s *SNAT) shardFor(port uint16) *snatShard {
	return &s.shards[port&(snatShards-1)]
}

// AllocatePort picks a free source port for an outbound connection to
// remote:remotePort such that the response packet
// (remote:remotePort → vip:port) hashes to this DIP on the HMux.
// steer.ErrVIPNotFound if the table does not hold the VIP.
func (s *SNAT) AllocatePort(remote packet.Addr, remotePort uint16, proto uint8) (uint16, error) {
	ranges := *s.ranges.Load()
	if len(ranges) == 0 {
		return 0, ErrNoRange
	}
	entry, ok := s.tbl.View().Find(s.vip)
	if !ok {
		return 0, steer.ErrVIPNotFound
	}
	for _, r := range ranges {
		for p := uint32(r.lo); p <= uint32(r.hi); p++ {
			port := uint16(p)
			sh := s.shardFor(port)
			sh.mu.Lock()
			if sh.used[port] {
				sh.mu.Unlock()
				continue
			}
			s.searched.Add(1)
			// The inbound response as seen by the HMux.
			resp := packet.FiveTuple{
				Src: remote, Dst: s.vip,
				SrcPort: remotePort, DstPort: port,
				Proto: proto,
			}
			dip, err := entry.DIP(resp, ecmp.Hash(resp))
			if err != nil {
				sh.mu.Unlock()
				return 0, err
			}
			if dip == s.self {
				sh.used[port] = true
				sh.mu.Unlock()
				s.usedN.Add(1)
				s.telAllocs.Inc()
				return port, nil
			}
			sh.mu.Unlock()
		}
	}
	s.telExhausted.Inc()
	s.telRec.Record(telemetry.KindSNATExhausted, s.telNode, uint32(s.vip), uint32(s.self), uint64(s.usedN.Load()))
	return 0, ErrPortsExhausted
}

// ReleasePort frees a previously allocated port.
func (s *SNAT) ReleasePort(port uint16) {
	sh := s.shardFor(port)
	sh.mu.Lock()
	if sh.used[port] {
		delete(sh.used, port)
		s.usedN.Add(-1)
	}
	sh.mu.Unlock()
}

// Used returns the number of currently allocated ports.
func (s *SNAT) Used() int { return int(s.usedN.Load()) }

// Probed returns how many candidate ports have been hash-tested; the
// expected value is ≈ len(backends) probes per allocation.
func (s *SNAT) Probed() uint64 { return s.searched.Load() }
