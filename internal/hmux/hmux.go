// Package hmux implements Duet's hardware mux (paper §3.1): a commodity
// switch whose host-forwarding, ECMP and tunneling tables are re-purposed to
// hold VIP→DIP mappings, turning the switch into an in-situ load balancer.
//
// The three tables and their interaction mirror Figure 2:
//
//	host forwarding table:  VIP (/32 exact match) → ECMP group
//	ECMP table:             group entries, selected by hash(5-tuple)
//	tunneling table:        encap destination per entry, deduplicated by IP
//
// What a programmed VIP resolves to is not the switch's own structure: the
// host and TIP tables hold the steer.Entry every tier resolves against
// (internal/steer builds and edits it; in a core.Cluster the switch installs
// the very entry the SMux tier holds), so the HMux picks the DIP the SMux
// and the NMux pick by construction. This package is what only a switch has:
// admission against the bounded tables and their release, tunnel reference
// counts, the TIP decap-and-re-encap stage and the drop taxonomy.
//
// Resource limits are enforced exactly as on the paper's switches: 16K host
// entries, 4K ECMP entries, 512 tunneling entries. VIPs with more than 512
// DIPs are supported through TIP indirection (§5.2, Figure 7), and port-based
// rules through an ACL stage ahead of the host table (§5.2, Figure 8).
//
// Concurrency mirrors the hardware split the paper exploits: the ASIC
// forwards at line rate while the switch agent reprograms tables underneath
// it. Here the lookup tables live in an immutable struct published through an
// atomic pointer; table programming (an Apply batch — AddVIP and RemoveVIP are
// batches of one — and AddTIP) serializes on a writer lock, replaces the
// affected entries and republishes one generation that shares every other
// entry with the last. Process/Lookup load the pointer once per
// packet, so concurrent dataplane goroutines always see a complete, consistent
// table generation — never a half-programmed VIP.
package hmux

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"duet/internal/addrmap"
	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// Default table capacities from the paper (§3.1). The ECMP state is split
// between a group table (one entry per VIP/rule, footnote 2) and the member
// table (one entry per DIP); ACL rules implement port-based balancing and
// are plentiful (§5.2: "typically the number of ACL rules supported is
// larger than the tunneling table size, so it is not a bottleneck").
const (
	DefaultHostTableSize      = 16384
	DefaultECMPTableSize      = 4096
	DefaultECMPGroupTableSize = 1024
	DefaultTunnelTableSize    = 512
	DefaultACLTableSize       = 4096
)

// Errors returned by table programming.
var (
	ErrHostTableFull      = errors.New("hmux: host forwarding table full")
	ErrECMPTableFull      = errors.New("hmux: ECMP table full")
	ErrECMPGroupTableFull = errors.New("hmux: ECMP group table full")
	ErrTunnelTableFull    = errors.New("hmux: tunneling table full")
	ErrACLTableFull       = errors.New("hmux: ACL table full")
	ErrVIPExists          = errors.New("hmux: VIP already programmed")
	ErrVIPNotFound        = errors.New("hmux: VIP not programmed")
	ErrNotOurVIP          = errors.New("hmux: packet does not match any VIP")
)

// ErrNoTunnelEntry is returned by Process when the matched VIP's ECMP group
// has no live member (every DIP removed), so no tunneling-table entry can be
// selected.
var ErrNoTunnelEntry = errors.New("hmux: no tunnel entry for VIP")

// Config sizes one HMux.
type Config struct {
	// SelfAddr is the switch's own routable address, used as the outer
	// source of encapsulated packets.
	SelfAddr packet.Addr

	HostTableSize      int
	ECMPTableSize      int
	ECMPGroupTableSize int
	TunnelTableSize    int
	ACLTableSize       int
}

// DefaultConfig returns paper-accurate table sizes for a switch.
func DefaultConfig(self packet.Addr) Config {
	return Config{
		SelfAddr:           self,
		HostTableSize:      DefaultHostTableSize,
		ECMPTableSize:      DefaultECMPTableSize,
		ECMPGroupTableSize: DefaultECMPGroupTableSize,
		TunnelTableSize:    DefaultTunnelTableSize,
		ACLTableSize:       DefaultACLTableSize,
	}
}

// tables is one immutable generation of the switch's lookup state. A mutator
// copies the struct, replaces the one table it edits through the shared
// copy-on-write map (internal/addrmap) and publishes the copy.
type tables struct {
	vips addrmap.Map[*steer.Entry] // host table: exact /32 match
	tips addrmap.Map[*steer.Entry] // TIP partitions hosted on this switch
}

// Mux is one hardware mux. Process and Lookup are safe for any number of
// concurrent callers; table programming serializes internally.
type Mux struct {
	cfg Config

	tab atomic.Pointer[tables]

	// Writer-side state, guarded by mu: table-occupancy accounting used for
	// admission control, plus the serialization of all mutators.
	mu         sync.Mutex
	ecmpUsed   int
	groupsUsed int
	aclUsed    int
	tunnelRefs map[packet.Addr]int // encap IP → reference count
	gens       uint64              // table generations published

	tel muxTelemetry
}

// muxTelemetry is the HMux's pre-resolved instrument block. Every field is
// nil-safe: an uninstrumented mux pays one branch per touch point.
type muxTelemetry struct {
	ctr Counters // what Process and Parse count, call by call

	dropMalformed, dropNoTunnelEntry telemetry.CounterShard
	dropEncapError                   telemetry.CounterShard

	rec  *telemetry.Recorder
	node uint32
}

// Tally is a run of ProcessSampled calls' share of the per-packet counters.
// The stage body counts into its caller's Tally, plain memory the forwarding
// goroutine owns, and the caller adds the run to the shared counters at once
// (Counters.Flush) instead of paying their atomics once per packet.
type Tally struct{ packets, encapped, viaTIP uint64 }

// Counters are the HMux's per-packet counters, shared by every HMux on a
// registry: what a Tally is flushed into.
type Counters struct{ packets, encapped, viaTIP telemetry.CounterShard }

// NewCounters claims a shard of each per-packet counter on reg. A nil
// registry gives no-op counters.
func NewCounters(reg *telemetry.Registry) Counters {
	return Counters{
		packets:  reg.Counter("hmux.packets").Shard(),
		encapped: reg.Counter("hmux.encapped").Shard(),
		viaTIP:   reg.Counter("hmux.via_tip").Shard(),
	}
}

// Flush adds t to the counters and zeroes it.
//
//duet:hotpath
func (c Counters) Flush(t *Tally) {
	c.packets.Add(t.packets)
	c.encapped.Add(t.encapped)
	c.viaTIP.Add(t.viaTIP)
	*t = Tally{}
}

// Gauges are the switches' table-occupancy gauges, what the
// hmux-*-occupancy watchdogs read.
type Gauges struct {
	hostUsed, hostCap     *telemetry.Gauge
	ecmpUsed, ecmpCap     *telemetry.Gauge
	tunnelUsed, tunnelCap *telemetry.Gauge
}

// NewGauges registers the gauges on reg.
func NewGauges(reg *telemetry.Registry) Gauges {
	return Gauges{
		hostUsed:   reg.Gauge("hmux.tables.host_used_max"),
		hostCap:    reg.Gauge("hmux.tables.host_cap"),
		ecmpUsed:   reg.Gauge("hmux.tables.ecmp_used_max"),
		ecmpCap:    reg.Gauge("hmux.tables.ecmp_cap"),
		tunnelUsed: reg.Gauge("hmux.tables.tunnel_used_max"),
		tunnelCap:  reg.Gauge("hmux.tables.tunnel_cap"),
	}
}

// Collect publishes each table's maximum use and capacity over muxes,
// skipping a nil one (a stopped switch). It allocates nothing.
func (g Gauges) Collect(muxes ...*Mux) {
	var st Stats
	for _, m := range muxes {
		if m != nil {
			s := m.Stats()
			st.HostUsed, st.HostCap = max(st.HostUsed, s.HostUsed), max(st.HostCap, s.HostCap)
			st.ECMPUsed, st.ECMPCap = max(st.ECMPUsed, s.ECMPUsed), max(st.ECMPCap, s.ECMPCap)
			st.TunnelUsed, st.TunnelCap = max(st.TunnelUsed, s.TunnelUsed), max(st.TunnelCap, s.TunnelCap)
		}
	}
	g.hostUsed.Set(int64(st.HostUsed))
	g.hostCap.Set(int64(st.HostCap))
	g.ecmpUsed.Set(int64(st.ECMPUsed))
	g.ecmpCap.Set(int64(st.ECMPCap))
	g.tunnelUsed.Set(int64(st.TunnelUsed))
	g.tunnelCap.Set(int64(st.TunnelCap))
}

// SetTelemetry attaches the mux to a metric registry and flight recorder.
// node identifies this switch in trace events (its SwitchID). Counters are
// shared across all HMuxes registered on the same registry; each mux claims
// its own shard so hot-path increments never contend. Call during setup,
// not concurrently with Process.
func (m *Mux) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder, node uint32) {
	m.tel = muxTelemetry{
		ctr:               NewCounters(reg),
		dropMalformed:     reg.Counter("hmux.drops.malformed").Shard(),
		dropNoTunnelEntry: reg.Counter("hmux.drops.no_tunnel_entry").Shard(),
		dropEncapError:    reg.Counter("hmux.drops.encap_error").Shard(),
		rec:               rec,
		node:              node,
	}
}

// drop accounts a rejected packet under its distinct reason and emits a
// KindDrop trace event (drops are rare, so they are recorded unsampled).
// It returns err unchanged so Process's error identities are preserved.
func (m *Mux) drop(reason telemetry.DropReason, dst packet.Addr, err error) error {
	switch reason {
	case telemetry.DropMalformed:
		m.tel.dropMalformed.Inc()
	case telemetry.DropNoBackend:
		m.tel.dropNoTunnelEntry.Inc()
	case telemetry.DropEncapError:
		m.tel.dropEncapError.Inc()
	}
	m.tel.rec.Record(telemetry.KindDrop, m.tel.node, uint32(dst), 0, uint64(reason))
	return err
}

// New creates an HMux with the given configuration.
func New(cfg Config) *Mux {
	if cfg.HostTableSize <= 0 {
		cfg.HostTableSize = DefaultHostTableSize
	}
	if cfg.ECMPTableSize <= 0 {
		cfg.ECMPTableSize = DefaultECMPTableSize
	}
	if cfg.ECMPGroupTableSize <= 0 {
		cfg.ECMPGroupTableSize = DefaultECMPGroupTableSize
	}
	if cfg.TunnelTableSize <= 0 {
		cfg.TunnelTableSize = DefaultTunnelTableSize
	}
	if cfg.ACLTableSize <= 0 {
		cfg.ACLTableSize = DefaultACLTableSize
	}
	m := &Mux{
		cfg:        cfg,
		tunnelRefs: make(map[packet.Addr]int),
	}
	m.tab.Store(&tables{})
	return m
}

// Stats reports table occupancy.
type Stats struct {
	HostUsed, HostCap     int
	ECMPUsed, ECMPCap     int
	GroupsUsed, GroupsCap int
	TunnelUsed, TunnelCap int
	ACLUsed, ACLCap       int
	VIPs, TIPs            int
	Generation            uint64 // table generations published so far
}

// Stats returns current table occupancy.
func (m *Mux) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab.Load()
	return Stats{
		HostUsed: t.vips.Len() + t.tips.Len(), HostCap: m.cfg.HostTableSize,
		ECMPUsed: m.ecmpUsed, ECMPCap: m.cfg.ECMPTableSize,
		GroupsUsed: m.groupsUsed, GroupsCap: m.cfg.ECMPGroupTableSize,
		TunnelUsed: len(m.tunnelRefs), TunnelCap: m.cfg.TunnelTableSize,
		ACLUsed: m.aclUsed, ACLCap: m.cfg.ACLTableSize,
		VIPs: t.vips.Len(), TIPs: t.tips.Len(),
		Generation: m.gens,
	}
}

// charge adds sign times an entry's footprint to the table accounting (+1
// admits it, -1 releases it): one ECMP group per backend set, one member
// entry and one tunnel reference per live DIP, and one ACL (dst, port) match
// rule for every set but the default one (Figure 8). Callers hold m.mu.
func (m *Mux) charge(e *steer.Entry, sign int) {
	sets := 0
	e.Sets(func(dips []packet.Addr) {
		sets++
		m.ecmpUsed += sign * len(dips)
		for _, d := range dips {
			if m.tunnelRefs[d] += sign; m.tunnelRefs[d] <= 0 {
				delete(m.tunnelRefs, d)
			}
		}
	})
	m.groupsUsed += sign * sets
	m.aclUsed += sign * (sets - 1)
}

// overfull names the first bounded table the accounting exceeds.
func (m *Mux) overfull() error {
	switch {
	case m.ecmpUsed > m.cfg.ECMPTableSize:
		return ErrECMPTableFull
	case m.groupsUsed > m.cfg.ECMPGroupTableSize:
		return ErrECMPGroupTableFull
	case m.aclUsed > m.cfg.ACLTableSize:
		return ErrACLTableFull
	case len(m.tunnelRefs) > m.cfg.TunnelTableSize:
		return ErrTunnelTableFull
	}
	return nil
}

// Apply programs a batch of VIPs (steer.OpAdd, a VIP and all its port
// rules; steer.OpSet, the same after the VIP's old entry leaves, so a set
// that does not fit leaves it out; steer.OpRemove, a withdrawal releasing its
// table entries; steer.OpRemoveDIP, one DIP taken out resiliently —
// connections to the survivors keep their mapping, paper §5.1 "DIP failure" —
// releasing its ECMP member and tunnel reference; steer.OpMode, the same
// slots in another mode, which a switch never reads) in order and publishes one
// table generation for all of them, none when nothing changed. Each op is
// admitted alone against what the ops before it left — a VIP that does not
// fit fails with the full table's error — so a VIP re-added after its
// removal in the same batch is charged against the released entries. An op
// installs the entry it carries (steer.Derive), so a switch in a cluster
// holds the SMux tier's entry rather than one it built from the config.
func (m *Mux) Apply(ops []steer.Op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := *m.tab.Load()
	vips := t.vips.Edit()
	changed := false
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case steer.OpAdd, steer.OpSet:
			if e, ok := vips.Get(op.VIP.Addr); ok && op.Kind == steer.OpSet {
				m.charge(e, -1)
				vips.Delete(op.VIP.Addr)
				changed = true
			}
			if op.Err = steer.Derive(op, nil, steer.ModeStateless); op.Err == nil {
				op.Err = m.admit(vips, t.tips, op.VIP.Addr, op.Entry)
			}
		case steer.OpRemove, steer.OpRemoveDIP, steer.OpMode:
			e, ok := vips.Get(op.Addr)
			switch {
			case !ok:
				op.Err = ErrVIPNotFound
			case op.Kind == steer.OpRemove:
				m.charge(e, -1)
				vips.Delete(op.Addr)
				op.Err = nil
			default:
				if op.Err = steer.Derive(op, e, steer.ModeStateless); op.Err == nil {
					m.charge(e, -1)
					m.charge(op.Entry, +1)
					vips.Set(op.Addr, op.Entry)
				}
			}
		default:
			op.Err = fmt.Errorf("hmux: op kind %d does not program a switch", op.Kind)
		}
		changed = changed || op.Err == nil
	}
	if changed {
		t.vips = vips.Map()
		m.publish(&t)
	}
}

// admit checks addr's entry e against the host table (into is the half it
// goes in, VIPs or TIPs, other the other half) and every bounded table,
// charges its footprint and installs it in into. A switch keeps no per-flow
// state, so it never reads the entry's mode: every packet is a fresh pick.
// Callers hold m.mu.
func (m *Mux) admit(into *addrmap.Edit[*steer.Entry], other addrmap.Map[*steer.Entry], addr packet.Addr, e *steer.Entry) error {
	if _, ok := into.Get(addr); ok {
		return ErrVIPExists
	}
	if _, ok := other.Get(addr); ok {
		return ErrVIPExists
	}
	if into.Len()+other.Len()+1 > m.cfg.HostTableSize {
		return ErrHostTableFull
	}
	m.charge(e, +1)
	if err := m.overfull(); err != nil {
		m.charge(e, -1)
		return err
	}
	into.Set(addr, e)
	return nil
}

// publish installs a table generation. Callers hold m.mu.
func (m *Mux) publish(t *tables) {
	m.gens++
	m.tab.Store(t)
}

// AddVIP programs a VIP and all its port rules: a batch of one.
func (m *Mux) AddVIP(v *service.VIP) error {
	return steer.One(m.Apply, steer.Op{Kind: steer.OpAdd, VIP: v})
}

// RemoveVIP withdraws a VIP from the switch: a batch of one.
func (m *Mux) RemoveVIP(addr packet.Addr) error {
	return steer.One(m.Apply, steer.Op{Kind: steer.OpRemove, Addr: addr})
}

// HasVIP reports whether the VIP is programmed here.
func (m *Mux) HasVIP(addr packet.Addr) bool {
	_, ok := m.tab.Load().vips.Get(addr)
	return ok
}

// AddTIP programs a transient-IP partition on this switch (paper §5.2,
// Figure 7): packets arriving encapsulated to the TIP are decapsulated and
// re-encapsulated to one of the partition's DIPs, selected by the hash of
// the inner 5-tuple.
func (m *Mux) AddTIP(tip packet.Addr, backends []service.Backend) error {
	if len(backends) == 0 {
		return fmt.Errorf("hmux: TIP %s has no backends", tip)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := *m.tab.Load()
	tips := t.tips.Edit()
	e := steer.NewEntry(&service.VIP{Addr: tip, Backends: backends}, steer.ModeStateless)
	if err := m.admit(tips, t.vips, tip, e); err != nil {
		return err
	}
	t.tips = tips.Map()
	m.publish(&t)
	return nil
}

// Result describes what Process did with a packet.
type Result struct {
	// Encap is the chosen encapsulation destination (DIP, HIP or TIP).
	Encap packet.Addr
	// Packet is the resulting wire bytes: the tail Process appended to out.
	Packet []byte
	// ViaTIP reports that the pipeline performed TIP decap + re-encap.
	ViaTIP bool
}

// Process runs one packet through the HMux pipeline. out is an optional
// reuse buffer: the encapsulated packet is appended to it, the bytes already
// in it are left untouched, and Result.Packet is exactly this packet's bytes.
// A packet whose destination matches no programmed VIP or TIP returns
// ErrNotOurVIP uncounted: a table miss is a fall-through, not a drop, and the
// caller sends the packet on unchanged along the aggregate route to an SMux.
//
// This is the dataplane path: it performs no allocation beyond growing the
// caller's buffer, and it is safe for any number of concurrent callers (each
// call resolves against one atomically loaded table generation).
//
// Process is the unsampled form for a caller holding only the bytes: it
// parses them, calls ProcessSampled and counts the one packet. The packet
// leaves counters but no pipeline events.
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

// Parse verifies data as this mux's input (packet.Parse): a packet that fails
// is counted here, as one of the mux's packets and a malformed drop.
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
// parsed the packet and taken its sampling decision: f is data's flow and
// hash its ecmp.Hash (a packet for a TIP resolves on its inner tuple, and the
// stage does not read hash). core.Cluster and wire.Node each parse and decide
// once per packet and hand both to every stage, so no stage decodes the
// header again and a sampled packet leaves a complete trace. The packet is
// counted in tally, which the caller flushes (Counters.Flush).
//
//duet:hotpath
func (m *Mux) ProcessSampled(data, out []byte, f packet.Flow, hash uint64, sampled bool, tally *Tally) (Result, error) {
	tally.packets++
	if sampled {
		m.tel.rec.Record(telemetry.KindPacketIn, m.tel.node, 0, 0, uint64(len(data)))
	}
	t := m.tab.Load()
	dst := f.Tuple.Dst

	// TIP stage: decapsulate and fall through to re-encapsulation with the
	// inner packet (Figure 7's second hop). The inner header is new to this
	// stage, so it is parsed here.
	if e, ok := t.tips.Get(dst); ok && f.Tuple.Proto == packet.ProtoIPIP {
		inner := packet.Payload(data)
		in, err := packet.Parse(inner)
		if err != nil {
			return Result{}, m.drop(telemetry.DropMalformed, dst, err)
		}
		encap, err := e.DIP(in.Tuple, ecmp.Hash(in.Tuple))
		if err != nil {
			return Result{}, m.drop(telemetry.DropNoBackend, dst, ErrNoTunnelEntry)
		}
		pkt, err := packet.Encapsulate(out, m.cfg.SelfAddr, encap, inner, 64)
		if err != nil {
			return Result{}, m.drop(telemetry.DropEncapError, dst, err)
		}
		tally.viaTIP++
		tally.encapped++
		if sampled {
			m.tel.rec.Record(telemetry.KindTIPHop, m.tel.node, uint32(dst), uint32(encap), 0)
		}
		return Result{Encap: encap, Packet: pkt[len(out):], ViaTIP: true}, nil
	}

	e, ok := t.vips.Get(dst)
	if !ok {
		return Result{}, ErrNotOurVIP
	}
	if sampled {
		m.tel.rec.Record(telemetry.KindVIPLookup, m.tel.node, uint32(dst), 0, 0)
	}
	// The ACL stage — a port rule overrides the default backend set (Figure
	// 8) — and the ECMP pick are the entry's.
	encap, err := e.DIP(f.Tuple, hash)
	if err != nil {
		return Result{}, m.drop(telemetry.DropNoBackend, dst, ErrNoTunnelEntry)
	}
	if sampled {
		m.tel.rec.Record(telemetry.KindECMPPick, m.tel.node, uint32(dst), uint32(encap), 0)
	}
	pkt, err := packet.Encapsulate(out, m.cfg.SelfAddr, encap, data, 64)
	if err != nil {
		return Result{}, m.drop(telemetry.DropEncapError, dst, err)
	}
	tally.encapped++
	if sampled {
		m.tel.rec.Record(telemetry.KindEncap, m.tel.node, uint32(dst), uint32(encap), 0)
	}
	return Result{Encap: encap, Packet: pkt[len(out):]}, nil
}

// Lookup returns the encap destination Process would choose for a tuple,
// without building the packet. The controller and tests use it to reason
// about mappings cheaply.
func (m *Mux) Lookup(tuple packet.FiveTuple) (packet.Addr, error) {
	e, ok := m.tab.Load().vips.Get(tuple.Dst)
	if !ok {
		return 0, ErrNotOurVIP
	}
	encap, err := e.DIP(tuple, ecmp.Hash(tuple))
	if err != nil {
		return 0, ErrNoTunnelEntry
	}
	return encap, nil
}
