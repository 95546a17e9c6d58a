// Package smux implements the Ananta-style software mux (paper §2.1) that
// Duet deploys as a backstop: a commodity server that stores the complete
// VIP→DIP mapping in main memory, announces every VIP (in aggregate
// prefixes), splits traffic with the same hash function as the HMuxes, and
// encapsulates packets in software.
//
// 5-tuple→DIP resolution lives in the shared steer table
// (internal/steer): an epoch-versioned consistent lookup table the paired
// NIC mux reads too, so fall-through between tiers stays byte-identical.
// On top of it the SMux offers three per-VIP consistency modes:
//
//   - stateful: every flow is pinned in the connection table on first
//     packet (Ananta's behaviour — what lets DIP addition avoid remapping
//     established connections, paper §5.2);
//   - stateless: pure steer-table lookup, zero per-flow writes (Concury);
//   - hybrid: steer-table lookup plus a bounded overlay that pins only the
//     flows whose DIP would change across a table epoch, expiring once the
//     old epoch drains ("LB Scalability: stateful vs stateless").
//
// Concurrency: the steer table is immutable generations behind an atomic
// pointer. The connection table and hybrid overlay are the genuinely
// mutable dataplane state, each a steer.Pins (sharded by flow hash with
// per-shard locks); concurrent Process calls on different flows touch
// different shards and never serialize on a global lock.
package smux

import (
	"errors"
	"math"
	"sync/atomic"

	"duet/internal/clock"
	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// DefaultCapacityPPS is the packet rate at which one SMux saturates its CPU
// (paper §2.2: 300K packets/sec on the production SKU).
const DefaultCapacityPPS = 300_000

// Connection-lifetime constants (clock seconds) and the overlay bound.
const (
	// DefaultConnIdle evicts a stateful entry this long after its last
	// packet. Matches typical LB idle timeouts (minutes, not hours).
	DefaultConnIdle = 300.0
	// DefaultFinLinger keeps a FIN/RST-ed entry just long enough for the
	// closing handshake's stragglers, then frees the slot (both tables).
	DefaultFinLinger = steer.DefaultFinLinger
	// DefaultOverlayTTL expires an idle hybrid pin. Refreshed on traffic,
	// so only flows that went quiet (or ended) age out.
	DefaultOverlayTTL = 60.0
	// DefaultMaxOverlay bounds the hybrid overlay; when full, straddling
	// flows are served from the old generation unpinned (and counted).
	DefaultMaxOverlay = 1 << 16
)

// Errors returned by the SMux.
var (
	ErrVIPNotFound = errors.New("smux: packet does not match any VIP")
	ErrVIPExists   = errors.New("smux: VIP already configured")
)

// Config parameterizes one SMux instance.
type Config struct {
	// SelfAddr is the server's address, used as the outer source of
	// encapsulated packets.
	SelfAddr packet.Addr

	// CapacityPPS is the CPU saturation point. It does not gate Process —
	// the latency model in internal/latmodel consumes it — but it is carried
	// here so deployments can mix SKUs.
	CapacityPPS float64

	// MaxConnections bounds the connection table, exactly and table-wide;
	// 0 means the default (1M entries). When full, new connections are
	// served stateless (pure hash) and counted in smux.conn.rejected_full,
	// rather than dropped or let in by evicting a live connection's pin.
	MaxConnections int

	// DefaultMode is the steering mode for VIPs added without one.
	DefaultMode steer.Mode

	// Clock supplies the seconds timeline for idle eviction and epoch
	// drains. Nil means a monotonic wall clock; tests inject virtual time.
	Clock func() float64
}

// DefaultConfig returns a production-like SMux configuration.
func DefaultConfig(self packet.Addr) Config {
	return Config{SelfAddr: self, CapacityPPS: DefaultCapacityPPS}
}

// Mux is one software mux. Process and Lookup are safe for concurrent
// callers; VIP programming serializes on the steer table's writer lock.
type Mux struct {
	cfg Config

	steer *steer.Table

	conns   *steer.Pins // stateful flows, expiring DefaultConnIdle after their last packet
	overlay *steer.Pins // hybrid flows that straddle an epoch, DefaultOverlayTTL

	clock   func() float64
	nowBits atomic.Uint64 // coarse clock (float64 bits), refreshed by Tick

	tel muxTelemetry
}

// muxTelemetry is the SMux's pre-resolved instrument block; all fields are
// nil-safe no-ops until SetTelemetry is called.
type muxTelemetry struct {
	ctr                            Counters // what Process and Parse count, call by call
	connInserts, connIdleEvictions telemetry.CounterShard
	overlayPins, overlayExpired    telemetry.CounterShard

	dropMalformed, dropUnknownVIP telemetry.CounterShard
	dropNoBackend, dropEncapError telemetry.CounterShard

	rec  *telemetry.Recorder
	node uint32
}

// Tally is a run of ProcessSampled calls' share of the per-packet counters
// (see hmux.Tally). A full table's refusals are among them: once a table is
// full, every packet of an unpinned flow is one.
type Tally struct {
	packets, encapped, connHits, connMisses, overlayHits uint64
	connRejected, overlayRejected                        uint64
}

// Counters are the SMux's per-packet counters, shared by every SMux on a
// registry: what a Tally is flushed into.
type Counters struct {
	packets, encapped, connHits, connMisses, overlayHits telemetry.CounterShard
	connRejected, overlayRejected                        telemetry.CounterShard
}

// NewCounters claims a shard of each per-packet counter on reg. A nil
// registry gives no-op counters.
func NewCounters(reg *telemetry.Registry) Counters {
	return Counters{
		packets:     reg.Counter("smux.packets").Shard(),
		encapped:    reg.Counter("smux.encapped").Shard(),
		connHits:    reg.Counter("smux.conn.hits").Shard(),
		connMisses:  reg.Counter("smux.conn.misses").Shard(),
		overlayHits: reg.Counter("smux.overlay.hits").Shard(),

		connRejected:    reg.Counter("smux.conn.rejected_full").Shard(),
		overlayRejected: reg.Counter("smux.overlay.rejected_full").Shard(),
	}
}

// Flush adds t to the counters and zeroes it.
//
//duet:hotpath
func (c Counters) Flush(t *Tally) {
	c.packets.Add(t.packets)
	c.encapped.Add(t.encapped)
	c.connHits.Add(t.connHits)
	c.connMisses.Add(t.connMisses)
	c.overlayHits.Add(t.overlayHits)
	c.connRejected.Add(t.connRejected)
	c.overlayRejected.Add(t.overlayRejected)
	*t = Tally{}
}

// Gauges are the SMux fleet's point-in-time gauges: capacity, per-flow state
// occupancy and the steer tables' epochs and drains.
type Gauges struct {
	capacity, conns, connShardMax, connBytes *telemetry.Gauge
	overlay, overlayCap, steerEpoch, drains  *telemetry.Gauge
}

// NewGauges registers the gauges on reg.
func NewGauges(reg *telemetry.Registry) Gauges {
	return Gauges{
		capacity:     reg.Gauge("smux.capacity_pps"),
		conns:        reg.Gauge("smux.conns_total"),
		connShardMax: reg.Gauge("smux.conn.shard_max"),
		connBytes:    reg.Gauge("smux.conn.bytes"),
		overlay:      reg.Gauge("smux.overlay_total"),
		overlayCap:   reg.Gauge("smux.overlay_cap"),
		steerEpoch:   reg.Gauge("steer.epoch_max"),
		drains:       reg.Gauge("steer.drains_active"),
	}
}

// Collect runs each mux's Tick first — the scrape is the muxes' maintenance
// cadence, so no mux needs a timer goroutine — and publishes the sums over
// muxes, the busiest conn shard and the highest steer epoch. It allocates
// nothing.
func (g Gauges) Collect(muxes ...*Mux) {
	var capPPS float64
	var st ConnStats
	var epoch uint64
	drains := 0
	for _, m := range muxes {
		capPPS += m.cfg.CapacityPPS
		m.Tick()
		s := m.ConnStats()
		st.Entries += s.Entries
		st.ShardMax = max(st.ShardMax, s.ShardMax)
		st.Bytes += s.Bytes
		st.Overlay += s.Overlay
		st.OverlayCap += s.OverlayCap
		epoch = max(epoch, m.steer.Epoch())
		if m.steer.DrainActive() {
			drains++
		}
	}
	g.capacity.Set(int64(capPPS))
	g.conns.Set(int64(st.Entries))
	g.connShardMax.Set(int64(st.ShardMax))
	g.connBytes.Set(st.Bytes)
	g.overlay.Set(int64(st.Overlay))
	g.overlayCap.Set(int64(st.OverlayCap))
	g.steerEpoch.Set(int64(epoch))
	g.drains.Set(int64(drains))
}

// SetTelemetry attaches the mux to a metric registry and flight recorder.
// node identifies this SMux in trace events. Counters are shared across the
// fleet on the same registry; each mux claims its own shard. Occupancy is
// Gauges' to publish. Call during setup, not concurrently with Process.
func (m *Mux) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder, node uint32) {
	m.tel = muxTelemetry{
		ctr:               NewCounters(reg),
		connInserts:       reg.Counter("smux.conn.inserts").Shard(),
		connIdleEvictions: reg.Counter("smux.conn.idle_evictions").Shard(),
		overlayPins:       reg.Counter("smux.overlay.pins").Shard(),
		overlayExpired:    reg.Counter("smux.overlay.expired").Shard(),
		dropMalformed:     reg.Counter("smux.drops.malformed").Shard(),
		dropUnknownVIP:    reg.Counter("smux.drops.unknown_vip").Shard(),
		dropNoBackend:     reg.Counter("smux.drops.no_backend").Shard(),
		dropEncapError:    reg.Counter("smux.drops.encap_error").Shard(),
		rec:               rec,
		node:              node,
	}
}

// drop accounts a rejected packet and returns err unchanged.
func (m *Mux) drop(reason telemetry.DropReason, dst packet.Addr, err error) error {
	switch reason {
	case telemetry.DropMalformed:
		m.tel.dropMalformed.Inc()
	case telemetry.DropUnknownVIP:
		m.tel.dropUnknownVIP.Inc()
	case telemetry.DropNoBackend:
		m.tel.dropNoBackend.Inc()
	case telemetry.DropEncapError:
		m.tel.dropEncapError.Inc()
	}
	m.tel.rec.Record(telemetry.KindDrop, m.tel.node, uint32(dst), 0, uint64(reason))
	return err
}

// New creates an SMux.
func New(cfg Config) *Mux {
	if cfg.CapacityPPS <= 0 {
		cfg.CapacityPPS = DefaultCapacityPPS
	}
	if cfg.MaxConnections <= 0 {
		cfg.MaxConnections = 1 << 20
	}
	m := &Mux{
		cfg:     cfg,
		conns:   steer.NewPins(DefaultConnIdle, cfg.MaxConnections),
		overlay: steer.NewPins(DefaultOverlayTTL, DefaultMaxOverlay),
	}
	m.clock = cfg.Clock
	if m.clock == nil {
		m.clock = clock.Wall()
	}
	m.nowBits.Store(math.Float64bits(m.clock()))
	m.steer = steer.NewTable(steer.Config{DefaultMode: cfg.DefaultMode, Clock: m.clock})
	return m
}

// coarseNow returns the clock reading as of the last Tick. The hot path
// reads this instead of the clock itself — one atomic load per packet.
func (m *Mux) coarseNow() float64 { return math.Float64frombits(m.nowBits.Load()) }

// Self returns the mux's address.
//
//duet:hotpath
func (m *Mux) Self() packet.Addr { return m.cfg.SelfAddr }

// Steer returns the lookup table this mux resolves through — the instance
// to share with a paired NIC mux.
func (m *Mux) Steer() *steer.Table { return m.steer }

// Epoch returns the steer-table generation, bumped on every mutation.
func (m *Mux) Epoch() uint64 { return m.steer.Epoch() }

// ConnStats is a point-in-time occupancy snapshot of the mux's per-flow
// state, for the memory gauges (conn-table growth used to be invisible
// until OOM).
type ConnStats struct {
	Entries    int   // pinned connections across all shards
	ShardMax   int   // most-loaded shard's entry count
	Bytes      int64 // memory the conn table's and overlay's arrays hold
	Overlay    int   // hybrid overlay pins
	OverlayCap int   // configured overlay bound
}

// ConnStats returns the current per-flow state occupancy.
func (m *Mux) ConnStats() ConnStats {
	st := ConnStats{OverlayCap: DefaultMaxOverlay}
	st.Entries, st.ShardMax = m.conns.Occupancy()
	st.Overlay, _ = m.overlay.Occupancy()
	st.Bytes = m.conns.Bytes() + m.overlay.Bytes()
	return st
}

// Apply reprograms a batch of VIPs (steer.Op: set with a mode, add, update,
// mode change, remove, DIP removal) as one steer-table generation, so a
// hybrid flow is compared with the table as it stood before the whole batch.
// Each op succeeds or fails alone, its error in Err (a DIP removal's unknown
// VIP or DIP both read ErrVIPNotFound). Unlike the HMux there is no capacity
// limit: the mapping lives in server memory (paper §2.1 "essentially an
// unlimited number of VIPs and DIPs"). Stateful and hybrid flows keep flowing
// to their pinned DIPs, so a backend change does not remap them; the pinned
// connections and overlay entries of a removed VIP or DIP are dropped
// (steer.Gone). A mode change takes effect on the next packet of every flow:
// pinned state from the previous mode stays honored in stateful/hybrid and is
// simply ignored in stateless.
func (m *Mux) Apply(ops []steer.Op) {
	m.steer.Apply(ops)
	for i := range ops {
		switch ops[i].Err {
		case steer.ErrVIPExists:
			ops[i].Err = ErrVIPExists
		case steer.ErrVIPNotFound, steer.ErrBackendNotFound:
			ops[i].Err = ErrVIPNotFound
		}
	}
	if gone := steer.Gone(ops); gone != nil {
		m.conns.Purge(gone)
		m.overlay.Purge(gone)
	}
}

// AddVIP installs a VIP with the table's default mode: a batch of one.
func (m *Mux) AddVIP(v *service.VIP) error {
	return steer.One(m.Apply, steer.Op{Kind: steer.OpAdd, VIP: v})
}

// UpdateVIP replaces a VIP's backend set, keeping its mode: a batch of one.
func (m *Mux) UpdateVIP(v *service.VIP) error {
	return steer.One(m.Apply, steer.Op{Kind: steer.OpUpdate, VIP: v})
}

// ModeOf returns a VIP's steering mode.
func (m *Mux) ModeOf(addr packet.Addr) (steer.Mode, bool) { return m.steer.ModeOf(addr) }

// HasVIP reports whether the VIP is configured.
func (m *Mux) HasVIP(addr packet.Addr) bool { return m.steer.HasVIP(addr) }

// NumVIPs returns the configured VIP count.
func (m *Mux) NumVIPs() int { return m.steer.NumVIPs() }

// Result describes the outcome of Process.
type Result struct {
	Encap  packet.Addr
	Packet []byte
	// Mode is the steering mode that resolved this packet.
	Mode steer.Mode
	// Pinned reports the DIP came from per-flow state (connection table or
	// hybrid overlay) rather than a fresh table lookup.
	Pinned bool
}

// Process load-balances one packet: decode, look up the VIP in the steer
// table, resolve the DIP per the VIP's mode, encapsulate. The encapsulated
// packet is appended to out: the bytes already in it are left untouched and
// Result.Packet is exactly this packet's bytes. Safe for concurrent callers:
// resolution is one atomic table load, and per-flow pinning locks only the
// flow's hash shard.
//
// Process is the unsampled form for a caller holding only the bytes (see
// hmux.Process).
//
//duet:hotpath
func (m *Mux) Process(data []byte, out []byte) (Result, error) {
	f, err := m.Parse(data)
	if err != nil {
		return Result{}, err
	}
	var t Tally
	res, err := m.ProcessSampled(data, out, f, ecmp.Hash(f.Tuple), false, &t)
	m.tel.ctr.Flush(&t)
	return res, err
}

// Parse verifies data as this mux's input (see hmux.Mux.Parse).
//
//duet:hotpath
func (m *Mux) Parse(data []byte) (packet.Flow, error) {
	f, err := packet.Parse(data)
	if err != nil {
		m.tel.ctr.packets.Inc()
		return f, m.drop(telemetry.DropMalformed, 0, err)
	}
	return f, nil
}

// ProcessSampled is the mux's one processing body, for a caller that has
// parsed the packet into f, hashed it (h) and taken its sampling decision
// (see hmux.Mux.ProcessSampled), counting it in tally.
//
//duet:hotpath
func (m *Mux) ProcessSampled(data, out []byte, f packet.Flow, h uint64, sampled bool, tally *Tally) (Result, error) {
	tally.packets++
	if sampled {
		m.tel.rec.Record(telemetry.KindPacketIn, m.tel.node, 0, 0, uint64(len(data)))
	}
	tuple, flags := f.Tuple, f.Flags
	view := m.steer.View()
	e, ok := view.Find(tuple.Dst)
	if !ok {
		return Result{}, m.drop(telemetry.DropUnknownVIP, tuple.Dst, ErrVIPNotFound)
	}
	if sampled {
		m.tel.rec.Record(telemetry.KindVIPLookup, m.tel.node, uint32(tuple.Dst), 0, 0)
	}

	// One hash per packet, reused for the state shard (top bits) and the
	// slot pick (low bits) — the same sharing the HMux hardware pipeline
	// gets from computing hash(5-tuple) once per stage.
	mode := e.Mode()
	now := m.coarseNow()
	var (
		dip    packet.Addr
		pinned bool // the DIP came from a pin, not a fresh pick
		err    error
	)
	switch mode {
	case steer.ModeStateful:
		if dip, pinned = m.conns.Hit(tuple, h, now, flags); pinned {
			break
		}
		dip, err = e.DIP(tuple, h)
		if err != nil {
			return Result{}, m.drop(telemetry.DropNoBackend, tuple.Dst, err)
		}
		var how steer.PinOutcome
		switch dip, how = m.conns.Insert(tuple, h, dip, now, flags); how {
		case steer.PinAdded:
			m.tel.connInserts.Inc()
		case steer.PinFound:
			pinned = true
		case steer.PinRefused:
			tally.connRejected++
		}

	case steer.ModeStateless:
		dip, err = e.DIP(tuple, h)
		if err != nil {
			return Result{}, m.drop(telemetry.DropNoBackend, tuple.Dst, err)
		}

	case steer.ModeHybrid:
		if dip, pinned = m.overlay.Hit(tuple, h, now, flags); pinned {
			tally.overlayHits++
			break
		}
		dip, err = e.DIP(tuple, h)
		if err != nil {
			return Result{}, m.drop(telemetry.DropNoBackend, tuple.Dst, err)
		}
		if !view.DrainActive(now) {
			break
		}
		// A flow straddles the epoch boundary when its DIP differs between
		// generations. A fresh SYN belongs to the new generation; anything
		// else predates it and must keep the old mapping — unless that DIP
		// is gone from the current generation (DIP failure): those
		// connections are necessarily terminated (§5.1) and rehash instead.
		if prev, ok := view.PrevDIP(tuple, h); ok && prev != dip && e.HasLive(tuple, prev) {
			if flags&packet.TCPSyn == 0 || flags&packet.TCPAck != 0 {
				dip = prev
			}
			// Served per the pin decision even when the overlay is full:
			// the recompute is deterministic while the drain lasts, so the
			// flow stays consistent until it expires.
			var how steer.PinOutcome
			switch dip, how = m.overlay.Insert(tuple, h, dip, now, flags); how {
			case steer.PinAdded:
				m.tel.overlayPins.Inc()
			case steer.PinFound:
				pinned = true
			case steer.PinRefused:
				tally.overlayRejected++
			}
		}
	}
	if pinned {
		tally.connHits++
	} else {
		tally.connMisses++
	}
	if sampled {
		aux := uint64(0)
		if pinned {
			aux = 1
		}
		m.tel.rec.Record(telemetry.KindECMPPick, m.tel.node, uint32(tuple.Dst), uint32(dip), aux)
	}

	pkt, err := packet.Encapsulate(out, m.cfg.SelfAddr, dip, data, 64)
	if err != nil {
		return Result{}, m.drop(telemetry.DropEncapError, tuple.Dst, err)
	}
	tally.encapped++
	if sampled {
		m.tel.rec.Record(telemetry.KindEncap, m.tel.node, uint32(tuple.Dst), uint32(dip), 0)
	}
	return Result{Encap: dip, Packet: pkt[len(out):], Mode: mode, Pinned: pinned}, nil
}

// Tick advances the mux's coarse clock and sweeps expired per-flow state:
// idle and FIN/RST-lingered connections, idle overlay pins, overlay pins
// whose DIP converged back to the live table, and the steer table's drained
// previous generation. Call it periodically (the scrape interval is the
// natural cadence); tests drive it with an injected clock.
func (m *Mux) Tick() {
	now := m.clock()
	m.nowBits.Store(math.Float64bits(now))
	m.tel.connIdleEvictions.Add(uint64(m.conns.Sweep(now, nil)))
	view := m.steer.View()
	var straddles func(packet.FiveTuple, packet.Addr) bool
	if !view.DrainActive(now) {
		// The old epoch has drained; pins whose DIP matches the live table
		// again (e.g. after remove + re-add convergence) are redundant and
		// can free their slot.
		straddles = func(t packet.FiveTuple, dip packet.Addr) bool {
			e, ok := view.Find(t.Dst)
			if !ok {
				return true
			}
			d, err := e.DIP(t, ecmp.Hash(t))
			return err != nil || d != dip
		}
	}
	m.tel.overlayExpired.Add(uint64(m.overlay.Sweep(now, straddles)))
	m.steer.ReleaseDrained()
}

// Lookup returns the DIP Process would pick for a tuple without mutating
// per-flow state. During an active epoch drain in hybrid mode it reports
// the live table's pick (Process may still serve the old generation for
// not-yet-pinned established flows — that decision needs the packet's TCP
// flags, which a tuple does not carry).
func (m *Mux) Lookup(tuple packet.FiveTuple) (packet.Addr, error) {
	view := m.steer.View()
	e, ok := view.Find(tuple.Dst)
	if !ok {
		return 0, ErrVIPNotFound
	}
	h := ecmp.Hash(tuple)
	pins := m.conns
	switch e.Mode() {
	case steer.ModeStateless:
		return e.DIP(tuple, h)
	case steer.ModeHybrid:
		pins = m.overlay
	}
	if d, ok := pins.Get(tuple, h); ok {
		return d, nil
	}
	return e.DIP(tuple, h)
}
