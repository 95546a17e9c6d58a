// Package nmux implements a NIC/DPU match-table mux: the third tier of the
// load-balancing hierarchy, sitting between the switch HMux and the software
// SMux on each SMux server's NIC. The model follows the NIC-offload
// literature (HNLB's stateful NIC load balancer, Gryphon's DPU co-offload):
// a bounded match table holding two entry kinds —
//
//   - per-VIP wildcard entries (one match rule plus one action entry per
//     backend, like the HMux's ECMP+tunneling pipeline), programmed by the
//     controller; and
//   - exact 5-tuple flow entries, inserted by the dataplane on a flow's
//     first packet so later packets hit a pinned DIP without re-hashing
//     (like the SMux connection table, but capacity-bounded).
//
// Both kinds draw from one shared table budget — NIC TCAM/SRAM does not
// distinguish them — so programming a fat VIP shrinks the room left for flow
// pinning. When the flow region is full, new flows are served stateless by
// the shared ECMP hash (never dropped, never evicted: real NICs age entries
// out, but arbitrary eviction would un-pin live connections, so the model
// declines the insert instead and counts it).
//
// Wildcard resolution goes through the shared steer table
// (internal/steer): when paired with an SMux on the same host, both tiers
// read the SAME steer.Table instance (the SMux owns mutation), so the
// encapsulated output for a given flow is byte-identical whichever tier
// serves it — which is what makes the fall-through (and table reprogramming
// under live traffic) invisible to backends. A standalone NMux owns a
// private table.
//
// A packet whose destination VIP has no wildcard entry is a MISS
// (ErrNotOurVIP): Pair falls through to the SMux tier.
//
// Concurrency: the programmed-VIP set is an immutable generation behind an
// atomic pointer (writers derive the next one from it under a mutex, through
// the shared copy-on-write map of internal/addrmap); the flow region is a
// steer.Pins — sharded by flow hash with per-shard locks, its cap the table
// space the wildcard entries leave — so the hot path never takes the writer
// lock.
package nmux

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"duet/internal/addrmap"
	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// DefaultTableSize is the match-table capacity in entries. NIC match tables
// sit at O(1k–10k) entries — small like the HMux's tables, not the SMux's
// million-entry RAM table.
const DefaultTableSize = 4096

// Errors returned by the NMux.
var (
	// ErrNotOurVIP is a table miss: Pair falls through to the SMux tier,
	// as a packet hmux.ErrNotOurVIP refuses follows the aggregate to a Pair.
	ErrNotOurVIP = errors.New("nmux: packet does not match any programmed entry")
	// ErrTableFull rejects wildcard programming that exceeds the table.
	ErrTableFull   = errors.New("nmux: match table full")
	ErrVIPExists   = errors.New("nmux: VIP already programmed")
	ErrVIPNotFound = errors.New("nmux: VIP not programmed")
)

// Config parameterizes one NMux instance.
type Config struct {
	// SelfAddr is the hosting server's address — the same address as the
	// SMux behind it, so both tiers produce identical outer sources.
	SelfAddr packet.Addr

	// TableSize bounds the match table (wildcard + flow entries combined);
	// 0 means DefaultTableSize.
	TableSize int

	// Steer, when non-nil, is the paired SMux's lookup table: this NMux
	// resolves through it and never mutates it (the SMux backstop carries
	// every NIC-programmed VIP, so the SMux's writes keep it fresh). Nil
	// creates a private table the NMux maintains itself.
	Steer *steer.Table
}

// vipTable is one immutable generation of the programmed VIPs: each VIP's
// wildcard cost, the entries it consumes. Its resolution state — backends
// included — lives in the steer table.
type vipTable = addrmap.Map[int]

// Mux is one NIC match-table mux. Process and Lookup are safe for concurrent
// callers; programming serializes on an internal writer lock.
type Mux struct {
	cfg Config

	steer    *steer.Table
	ownSteer bool // standalone: this mux maintains the table itself

	tab atomic.Pointer[vipTable]
	mu  sync.Mutex // serializes writers

	// Writer-side wildcard accounting: entries consumed by programmed VIPs,
	// and the wildcard-table generations published. Guarded by mu.
	wildcardUsed int
	gens         uint64

	// flows is the exact-match region: pins that never expire, capped at
	// the table space the wildcard entries leave (TableSize −
	// wildcardUsed), which writers reset.
	flows *steer.Pins

	tel muxTelemetry
}

// muxTelemetry is the NMux's pre-resolved instrument block; all fields are
// nil-safe no-ops until SetTelemetry is called.
type muxTelemetry struct {
	ctr         Counters // what Process and Parse count, call by call
	flowInserts telemetry.CounterShard

	dropMalformed, dropNoBackend telemetry.CounterShard
	dropEncapError               telemetry.CounterShard

	rec  *telemetry.Recorder
	node uint32
}

// Tally is a run of ProcessSampled calls' share of the per-packet counters
// (see hmux.Tally). A full flow region's refusals are among them: once it is
// full, every packet of an unpinned flow is one.
type Tally struct{ packets, encapped, hits, misses, flowHits, flowRejected uint64 }

// Counters are the NMux's per-packet counters, shared by every NMux on a
// registry: what a Tally is flushed into.
type Counters struct {
	packets, encapped, hits, misses, flowHits, flowRejected telemetry.CounterShard
}

// NewCounters claims a shard of each per-packet counter on reg. A nil
// registry gives no-op counters.
func NewCounters(reg *telemetry.Registry) Counters {
	return Counters{
		packets:  reg.Counter("nmux.packets").Shard(),
		encapped: reg.Counter("nmux.encapped").Shard(),
		hits:     reg.Counter("nmux.hits").Shard(),
		misses:   reg.Counter("nmux.misses").Shard(),
		flowHits: reg.Counter("nmux.flow.hits").Shard(),

		flowRejected: reg.Counter("nmux.flow.rejected_full").Shard(),
	}
}

// Flush adds t to the counters and zeroes it.
//
//duet:hotpath
func (c Counters) Flush(t *Tally) {
	c.packets.Add(t.packets)
	c.encapped.Add(t.encapped)
	c.hits.Add(t.hits)
	c.misses.Add(t.misses)
	c.flowHits.Add(t.flowHits)
	c.flowRejected.Add(t.flowRejected)
	*t = Tally{}
}

// Gauges are the NIC tables' occupancy gauges.
type Gauges struct{ used, cap, flows *telemetry.Gauge }

// NewGauges registers the gauges on reg.
func NewGauges(reg *telemetry.Registry) Gauges {
	return Gauges{
		used:  reg.Gauge("nmux.tables.used_max"),
		cap:   reg.Gauge("nmux.tables.cap"),
		flows: reg.Gauge("nmux.flows_total"),
	}
}

// Collect publishes the maximum use and capacity and the sum of flow entries
// over muxes. It allocates nothing.
func (g Gauges) Collect(muxes ...*Mux) {
	var used, capacity, flows int
	for _, m := range muxes {
		st := m.Stats()
		used, capacity = max(used, st.Used), max(capacity, st.Cap)
		flows += st.Flows
	}
	g.used.Set(int64(used))
	g.cap.Set(int64(capacity))
	g.flows.Set(int64(flows))
}

// SetTelemetry attaches the mux to a metric registry and flight recorder.
// node identifies this NMux in trace events. Counters are shared across the
// fleet on the same registry; each mux claims its own shard. Call during
// setup, not concurrently with Process.
func (m *Mux) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder, node uint32) {
	m.tel = muxTelemetry{
		ctr:            NewCounters(reg),
		flowInserts:    reg.Counter("nmux.flow.inserts").Shard(),
		dropMalformed:  reg.Counter("nmux.drops.malformed").Shard(),
		dropNoBackend:  reg.Counter("nmux.drops.no_backend").Shard(),
		dropEncapError: reg.Counter("nmux.drops.encap_error").Shard(),
		rec:            rec,
		node:           node,
	}
}

// drop accounts a rejected packet and returns err unchanged. A table miss is
// not a drop — the packet falls through to the SMux — so DropUnknownVIP never
// appears here.
func (m *Mux) drop(reason telemetry.DropReason, dst packet.Addr, err error) error {
	switch reason {
	case telemetry.DropMalformed:
		m.tel.dropMalformed.Inc()
	case telemetry.DropNoBackend:
		m.tel.dropNoBackend.Inc()
	case telemetry.DropEncapError:
		m.tel.dropEncapError.Inc()
	}
	m.tel.rec.Record(telemetry.KindDrop, m.tel.node, uint32(dst), 0, uint64(reason))
	return err
}

// New creates an NMux.
func New(cfg Config) *Mux {
	if cfg.TableSize <= 0 {
		cfg.TableSize = DefaultTableSize
	}
	m := &Mux{cfg: cfg, flows: steer.NewPins(0, cfg.TableSize)}
	m.steer = cfg.Steer
	if m.steer == nil {
		m.steer = steer.NewTable(steer.Config{})
		m.ownSteer = true
	}
	m.tab.Store(new(vipTable))
	return m
}

// Self returns the mux's address.
//
//duet:hotpath
func (m *Mux) Self() packet.Addr { return m.cfg.SelfAddr }

// NumVIPs returns the programmed VIP count.
func (m *Mux) NumVIPs() int { return m.tab.Load().Len() }

// HasVIP reports whether the VIP is programmed.
func (m *Mux) HasVIP(addr packet.Addr) bool {
	_, ok := m.tab.Load().Get(addr)
	return ok
}

// Cost returns the wildcard entries programming v consumes: one match rule
// plus one action entry per backend, per port range.
func Cost(v *service.VIP) int {
	c := 1 + len(v.Backends)
	for _, pr := range v.Ports {
		c += 1 + len(pr.Backends)
	}
	return c
}

// Stats is a point-in-time occupancy snapshot.
type Stats struct {
	Cap      int // configured table capacity
	Wildcard int // entries consumed by programmed VIPs
	Flows    int // exact-match flow entries
	Used     int // Wildcard + Flows
	VIPs     int // programmed VIP count

	Generation uint64 // wildcard-table generations published so far
}

// Stats returns the current table occupancy.
func (m *Mux) Stats() Stats {
	m.mu.Lock()
	w, gens := m.wildcardUsed, m.gens
	m.mu.Unlock()
	f, _ := m.flows.Occupancy()
	return Stats{
		Cap:        m.cfg.TableSize,
		Wildcard:   w,
		Flows:      f,
		Used:       w + f,
		VIPs:       m.NumVIPs(),
		Generation: gens,
	}
}

// publish installs a new wildcard-table generation and recaps the flow
// region at the space it leaves. Must hold m.mu.
func (m *Mux) publish(vips vipTable) {
	m.gens++
	m.tab.Store(&vips)
	m.flows.SetCap(m.cfg.TableSize - m.wildcardUsed)
}

// Apply programs a batch of ops (steer.OpAdd, OpUpdate, OpSet, OpRemove and
// OpRemoveDIP; the mode is the steer table's business) in order and publishes
// one wildcard-table generation for all of them, none when every op failed.
// The table is bounded: each op is admitted alone against what the ops before
// it left, and one that does not fit fails with ErrTableFull rather than
// evicting. Updating a VIP keeps its pinned flows — that is what makes a
// reprogram invisible to connections straddling it; removing one releases
// its wildcard entries, removing a DIP keeps its dead action slot (the cost
// holds, as on the HMux), and both drop the flows pinned to what left
// (steer.Gone). A paired mux leaves the steer entries, and whether a removed
// DIP was live, to the SMux that owns the table (its backstop still serves a
// removed VIP); a standalone one applies the same batch, with the entries
// its ops carry, to its own.
func (m *Mux) Apply(ops []steer.Op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vips := m.tab.Load().Edit()
	var own []steer.Op // the standalone mux's steer batch
	for i := range ops {
		op := &ops[i]
		if op.Err = m.apply(vips, op); op.Err == nil && m.ownSteer {
			kind := steer.OpSet // an upsert: the private table holds what this one does
			if op.Kind == steer.OpRemove || op.Kind == steer.OpRemoveDIP {
				kind = op.Kind
			}
			own = append(own, steer.Op{Kind: kind, Addr: op.Addr, VIP: op.VIP, DIP: op.DIP, Entry: op.Entry})
		}
	}
	if m.ownSteer {
		// Every VIP here passed Validate and OpSet is an upsert, so only a
		// DIP removal can fail on the private table: a DIP that is not live.
		m.steer.Apply(own)
		for i, j := 0, 0; j < len(own); i++ {
			if ops[i].Err == nil {
				ops[i].Err = own[j].Err
				j++
			}
		}
	}
	if !slices.ContainsFunc(ops, func(op steer.Op) bool { return op.Err == nil }) {
		return
	}
	m.publish(vips.Map())
	if gone := steer.Gone(ops); gone != nil {
		m.flows.Purge(gone)
	}
}

// apply admits one op of a batch against the batch's edit and the wildcard
// accounting. Must hold m.mu.
func (m *Mux) apply(vips *addrmap.Edit[int], op *steer.Op) error {
	switch op.Kind {
	case steer.OpAdd, steer.OpUpdate, steer.OpSet:
		v := op.VIP
		if err := v.Validate(); err != nil {
			return err
		}
		old, ok := vips.Get(v.Addr)
		switch {
		case op.Kind == steer.OpAdd && ok:
			return ErrVIPExists
		case op.Kind == steer.OpUpdate && !ok:
			return ErrVIPNotFound
		}
		cost := Cost(v)
		if m.wildcardUsed-old+cost > m.cfg.TableSize {
			return ErrTableFull
		}
		m.wildcardUsed += cost - old
		vips.Set(v.Addr, cost)
	case steer.OpRemove, steer.OpRemoveDIP:
		cost, ok := vips.Get(op.Addr)
		if !ok {
			return ErrVIPNotFound
		}
		if op.Kind == steer.OpRemove {
			m.wildcardUsed -= cost
			vips.Delete(op.Addr)
		}
	default:
		return fmt.Errorf("nmux: op kind %d does not program a NIC table", op.Kind)
	}
	return nil
}

// AddVIP programs a VIP's wildcard entries: a batch of one.
func (m *Mux) AddVIP(v *service.VIP) error {
	return steer.One(m.Apply, steer.Op{Kind: steer.OpAdd, VIP: v})
}

// Result describes the outcome of Process.
type Result struct {
	Encap  packet.Addr
	Packet []byte
	// Pinned reports the DIP came from an exact-match flow entry rather
	// than a fresh hash.
	Pinned bool
}

// Process load-balances one packet through the NIC table: decode, match the
// wildcard region (miss → ErrNotOurVIP, fall through to the SMux), pick the
// DIP (exact-match flow entry first, then the shared steer table, pinning
// the flow if the table has room), encapsulate. The output is appended to
// out: the bytes already in it are left untouched and Result.Packet is
// exactly this packet's bytes. Safe for concurrent callers; the hot path
// allocates nothing (flow-map growth aside) and never takes the writer lock.
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
// parsed the packet into f, hashed it (hash) and taken its sampling decision
// (see hmux.Mux.ProcessSampled), counting it in tally. Only a hit leaves
// pipeline events: a sampled miss falls through to the SMux, which records
// the packet's trace.
//
//duet:hotpath
func (m *Mux) ProcessSampled(data, out []byte, f packet.Flow, hash uint64, sampled bool, tally *Tally) (Result, error) {
	tally.packets++
	tuple := f.Tuple
	if _, ok := m.tab.Load().Get(tuple.Dst); !ok {
		tally.misses++
		return Result{}, ErrNotOurVIP
	}
	e, ok := m.steer.View().Find(tuple.Dst)
	if !ok {
		// Programmed here but absent from the shared table (the backstop
		// SMux has not learned the VIP yet): fall through rather than drop.
		tally.misses++
		return Result{}, ErrNotOurVIP
	}
	tally.hits++
	if sampled {
		m.tel.rec.Record(telemetry.KindVIPLookup, m.tel.node, uint32(tuple.Dst), 0, 0)
	}

	// One hash per packet, shared between the flow shard (top bits) and the
	// slot pick (low bits) — the same hash the HMux and SMux use, which is
	// what keeps tier fall-through consistent for a given flow.
	dip, pinned := m.flows.Hit(tuple, hash, 0, f.Flags)
	if !pinned {
		var err error
		dip, err = e.DIP(tuple, hash)
		if err != nil {
			return Result{}, m.drop(telemetry.DropNoBackend, tuple.Dst, err)
		}
		// Pin the flow if the table has room; when it is full the flow is
		// served stateless instead (no eviction — evicting would un-pin a
		// live connection).
		var how steer.PinOutcome
		switch dip, how = m.flows.Insert(tuple, hash, dip, 0, f.Flags); how {
		case steer.PinAdded:
			m.tel.flowInserts.Inc()
		case steer.PinFound:
			pinned = true
		case steer.PinRefused:
			tally.flowRejected++
		}
	}
	if pinned {
		tally.flowHits++
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
	return Result{Encap: dip, Packet: pkt[len(out):], Pinned: pinned}, nil
}

// Lookup returns the DIP Process would pick for a tuple without mutating
// flow state.
func (m *Mux) Lookup(tuple packet.FiveTuple) (packet.Addr, error) {
	if _, ok := m.tab.Load().Get(tuple.Dst); !ok {
		return 0, ErrNotOurVIP
	}
	e, ok := m.steer.View().Find(tuple.Dst)
	if !ok {
		return 0, ErrNotOurVIP
	}
	h := ecmp.Hash(tuple)
	if d, ok := m.flows.Get(tuple, h); ok {
		return d, nil
	}
	return e.DIP(tuple, h)
}
