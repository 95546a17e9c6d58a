package telemetry

import (
	"math"
	"sync/atomic"

	"duet/internal/clock"
)

// Kind classifies a flight-recorder event. Dataplane kinds trace one packet
// through the mux pipeline; control-plane kinds mark routing, programming
// and health transitions.
type Kind uint8

const (
	// Dataplane pipeline stages (sampled).
	KindPacketIn  Kind = iota + 1 // packet arrived at a mux; Aux = length
	KindVIPLookup                 // host-table / VIP-map hit; A = VIP
	KindECMPPick                  // backend chosen; A = VIP, B = DIP, Aux = pinned(1)/hashed(0)
	KindEncap                     // packet encapsulated and out; A = VIP, B = encap dst
	KindDrop                      // packet dropped; A = dst, Aux = DropReason
	KindTIPHop                    // TIP decap + re-encap stage; A = TIP, B = encap dst
	KindDecap                     // host agent decapsulated; A = VIP, B = DIP
	KindDSR                       // direct server return rewrite; A = VIP

	// Control plane (always recorded).
	KindBGPAnnounce      // A = prefix addr, Aux = prefix bits
	KindBGPWithdraw      // A = prefix addr, Aux = prefix bits
	KindTableProgram     // switch tables programmed; A = VIP/TIP, B = op: 0 add, 1 remove VIP, 2 remove DIP Aux
	KindMigrationStep    // controller migration step; A = VIP, Aux = step code
	KindHealthTransition // A = DIP, Aux = 1 healthy / 0 unhealthy
	KindSwitchFail       // Node = switch
	KindControllerReact  // controller observed an event and acted; Aux = code
	KindSNATExhausted    // A = VIP, B = DIP
	KindSLOAlert         // obs watchdog transition; A = rule index, Aux = 1 firing / 0 resolved
	KindTraceHop         // cross-process trace hop; A = TraceTier, B = packet dst, Aux = trace ID
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case KindPacketIn:
		return "packet-in"
	case KindVIPLookup:
		return "vip-lookup"
	case KindECMPPick:
		return "ecmp-pick"
	case KindEncap:
		return "encap"
	case KindDrop:
		return "drop"
	case KindTIPHop:
		return "tip-hop"
	case KindDecap:
		return "decap"
	case KindDSR:
		return "dsr"
	case KindBGPAnnounce:
		return "bgp-announce"
	case KindBGPWithdraw:
		return "bgp-withdraw"
	case KindTableProgram:
		return "table-program"
	case KindMigrationStep:
		return "migration-step"
	case KindHealthTransition:
		return "health-transition"
	case KindSwitchFail:
		return "switch-fail"
	case KindControllerReact:
		return "controller-react"
	case KindSNATExhausted:
		return "snat-exhausted"
	case KindSLOAlert:
		return "slo-alert"
	case KindTraceHop:
		return "trace-hop"
	}
	return "unknown"
}

// TraceTier labels the pipeline stage a KindTraceHop event was recorded at.
// One sampled packet leaves one trace-hop event per process it transits;
// stitching the events that share a trace ID (Aux) and ordering them by
// timestamp reconstructs the packet's HMux→{NMux|SMux}→host journey.
type TraceTier uint8

const (
	TraceTierHMux TraceTier = iota + 1 // switch hardware mux
	TraceTierNMux                      // NIC match-table tier
	TraceTierSMux                      // software mux
	TraceTierTIP                       // TIP indirection hop
	TraceTierHost                      // host agent delivery
)

// String names the trace tier.
func (t TraceTier) String() string {
	switch t {
	case TraceTierHMux:
		return "hmux"
	case TraceTierNMux:
		return "nmux"
	case TraceTierSMux:
		return "smux"
	case TraceTierTIP:
		return "tip"
	case TraceTierHost:
		return "host"
	}
	return "unknown"
}

// Event is one decoded flight-recorder entry. A and B carry IPv4 addresses
// in host byte order (the dataplane's packet.Addr representation) or
// kind-specific values; Aux is a kind-specific payload.
type Event struct {
	Seq  uint64  // global sequence number (monotone)
	Time float64 // seconds on the recorder's clock (virtual in simulation)
	Kind Kind
	Node uint32 // reporting node (switch ID, SMux index, host address hash)
	A, B uint32
	Aux  uint64
}

// slotWords is the ring stride: each slot is a fixed group of atomic words
// so concurrent writers and snapshot readers never perform a non-atomic
// access (the recorder stays race-detector clean without a lock).
//
//	word 0: commit marker = seq+1 (0 while the slot is being written)
//	word 1: time bits
//	word 2: kind<<32 | node
//	word 3: a<<32 | b
//	word 4: aux
const slotWords = 5

// Recorder is a lock-free ring buffer of trace events. Writers claim a slot
// with one atomic increment and publish it by storing the commit word last;
// Snapshot validates commit markers and skips slots caught mid-overwrite,
// so a torn event can be dropped but never surfaced.
//
// Dataplane call sites gate per-packet stages behind Sample() (or a run's
// SampleRun), which is true for one in SampleEvery packets; control-plane
// events are always recorded.
type Recorder struct {
	slots []atomic.Uint64
	size  uint64 // number of event slots
	pos   atomic.Uint64

	sampleMask atomic.Uint64 // record when ctr & mask == 0
	sampleCtr  atomic.Uint64

	clock atomic.Pointer[func() float64]
}

// DefaultRecorderSize holds the most recent 4096 events — enough for every
// control-plane transition of a testbed scenario plus a sampled packet
// stream.
const DefaultRecorderSize = 4096

// NewRecorder creates a recorder holding the last size events (rounded up
// to a power of two; 0 means DefaultRecorderSize). The default clock is
// wall time in seconds since creation; simulations inject their virtual
// clock with SetClock.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	n := uint64(1)
	for n < uint64(size) {
		n <<= 1
	}
	r := &Recorder{
		slots: make([]atomic.Uint64, n*slotWords),
		size:  n,
	}
	wall := clock.Wall()
	r.clock.Store(&wall)
	return r
}

// SetClock injects the time source (e.g. the testbed's virtual clock) used
// for Record. Call during setup; it is safe, but pointless, to race with
// writers.
func (r *Recorder) SetClock(now func() float64) {
	if r == nil || now == nil {
		return
	}
	r.clock.Store(&now)
}

// SetSampleEvery records one in every n dataplane packets (rounded up to a
// power of two; n <= 1 records all). Control-plane events ignore sampling.
func (r *Recorder) SetSampleEvery(n int) {
	if r == nil {
		return
	}
	if n <= 1 {
		r.sampleMask.Store(0)
		return
	}
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	r.sampleMask.Store(p - 1)
}

// Sample reports whether the current packet should be traced. Call it once
// per packet at pipeline entry and reuse the answer for every stage, so a
// sampled packet yields a complete pipeline trace.
//
//duet:hotpath
func (r *Recorder) Sample() bool { return r.SampleRun(1).Sampled(0) }

// SampleRun takes the sampling decisions of a run of n consecutive packets
// with one atomic add: Sampled(i) answers what the i-th of n Sample calls on
// one thread would have. A batch worker takes one per run instead of one per
// packet, so workers stop trading the counter's cache line.
//
//duet:hotpath
func (r *Recorder) SampleRun(n int) Samples {
	if r == nil || n <= 0 {
		return Samples{}
	}
	last := r.sampleCtr.Add(uint64(n))
	return Samples{first: last - uint64(n), mask: r.sampleMask.Load(), on: true}
}

// Samples is a run's sampling decisions (SampleRun). The zero value samples
// nothing.
type Samples struct {
	first, mask uint64
	on          bool
}

// Sampled reports whether packet i of the run is traced: it took the counter
// value first+i+1, and one in SampleEvery values is sampled.
//
//duet:hotpath
func (s Samples) Sampled(i int) bool {
	return s.on && (s.first+uint64(i)+1)&s.mask == 0
}

// Now reads the recorder's clock: wall seconds since creation unless
// SetClock injected another. A component that stamps its own state changes
// (core.Cluster's route updates) reads it here, so they carry the time its
// trace events do.
func (r *Recorder) Now() float64 {
	if r == nil {
		return 0
	}
	return (*r.clock.Load())()
}

// Record appends an event stamped with the recorder's clock.
//
//duet:hotpath
func (r *Recorder) Record(kind Kind, node, a, b uint32, aux uint64) {
	r.RecordAt(r.Now(), kind, node, a, b, aux)
}

// RecordAt appends an event with an explicit timestamp — the control-plane
// path for components that already operate on virtual time (BGP convergence
// times, switch-agent completion times).
//
//duet:hotpath
func (r *Recorder) RecordAt(t float64, kind Kind, node, a, b uint32, aux uint64) {
	if r == nil {
		return
	}
	seq := r.pos.Add(1) - 1
	i := (seq & (r.size - 1)) * slotWords
	s := r.slots
	s[i].Store(0) // invalidate while writing
	s[i+1].Store(math.Float64bits(t))
	s[i+2].Store(uint64(kind)<<32 | uint64(node))
	s[i+3].Store(uint64(a)<<32 | uint64(b))
	s[i+4].Store(aux)
	s[i].Store(seq + 1) // publish
}

// Recorded returns the total number of events ever recorded (including ones
// the ring has since overwritten).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.pos.Load()
}

// Snapshot decodes the committed events currently in the ring, oldest
// first. Slots caught mid-write (commit marker mismatch) are skipped.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	total := r.pos.Load()
	start := uint64(0)
	if total > r.size {
		start = total - r.size
	}
	out := make([]Event, 0, total-start)
	for seq := start; seq < total; seq++ {
		i := (seq & (r.size - 1)) * slotWords
		if r.slots[i].Load() != seq+1 {
			continue // being overwritten
		}
		tb := r.slots[i+1].Load()
		kn := r.slots[i+2].Load()
		ab := r.slots[i+3].Load()
		aux := r.slots[i+4].Load()
		if r.slots[i].Load() != seq+1 {
			continue // overwritten while reading
		}
		out = append(out, Event{
			Seq:  seq,
			Time: math.Float64frombits(tb),
			Kind: Kind(kn >> 32),
			Node: uint32(kn),
			A:    uint32(ab >> 32),
			B:    uint32(ab),
			Aux:  aux,
		})
	}
	return out
}
