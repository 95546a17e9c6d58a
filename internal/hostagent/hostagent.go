// Package hostagent implements the host agent (HA) that runs on every
// server (paper §2.1, §5.2, §6). The HA terminates the load balancer's
// encapsulation on the receive path, implements direct server return (DSR)
// on the send path, records DIP health for the controller, and allocates
// SNAT ports that are consistent with the HMux hash so outbound connections
// work without per-connection state on the switch.
//
// Concurrency: the registration tables (VIP→local DIPs, DIP→VIP, health)
// are immutable generations published through an atomic pointer — mutators
// (RegisterDIP, UnregisterDIP, SetHealth) derive the next one under a writer
// lock, through the shared copy-on-write map of internal/addrmap, so Receive
// on concurrent goroutines takes no lock.
package hostagent

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"duet/internal/addrmap"
	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/telemetry"
)

// Errors returned by the agent.
var (
	ErrNotForThisHost = errors.New("hostagent: no local DIP serves the packet's VIP")
	ErrUnknownDIP     = errors.New("hostagent: DIP not registered on this host")
)

// agentTables is one immutable generation of the agent's lookup state. A
// published generation (its DIP slices included) is never mutated — that is
// what makes Receive lock-free; a mutator copies the struct and replaces the
// tables it edits.
type agentTables struct {
	// locals maps VIP → local DIPs for that VIP on this host. In the
	// non-virtualized case each VIP has exactly one local DIP.
	locals addrmap.Map[[]packet.Addr]
	vipOf  addrmap.Map[packet.Addr] // DIP → VIP, for DSR
	health addrmap.Map[bool]        // DIP → healthy
}

// Agent is the host agent of one server (or one hypervisor host in
// virtualized clusters, where several VM DIPs share it — Figure 6).
// Receive and SendDSR are safe for concurrent callers; registration and
// health updates serialize on an internal writer lock.
type Agent struct {
	hostAddr packet.Addr

	tab atomic.Pointer[agentTables]
	mu  sync.Mutex // serializes table writers

	tel agentTelemetry
}

// agentTelemetry holds the agent's instrument handles. All fields are
// nil-safe: an agent that never calls SetTelemetry pays one branch per
// operation (see internal/telemetry).
type agentTelemetry struct {
	ctr                          Counters // what Receive counts, call by call
	dsr, dsrErrors               telemetry.CounterShard
	dropDecapError, dropNotLocal telemetry.CounterShard
	rec                          *telemetry.Recorder
	node                         uint32
}

// Tally is a run of ReceiveSampled calls' share of the per-packet counters
// (see hmux.Tally).
type Tally struct{ received, bytes uint64 }

// Counters are the agent's per-packet counters, shared by every agent on a
// registry: what a Tally is flushed into.
type Counters struct{ received, bytes telemetry.CounterShard }

// NewCounters claims a shard of each per-packet counter on reg. A nil
// registry gives no-op counters.
func NewCounters(reg *telemetry.Registry) Counters {
	return Counters{
		received: reg.Counter("hostagent.received").Shard(),
		bytes:    reg.Counter("hostagent.bytes").Shard(),
	}
}

// Flush adds t to the counters and zeroes it.
//
//duet:hotpath
func (c Counters) Flush(t *Tally) {
	c.received.Add(t.received)
	c.bytes.Add(t.bytes)
	*t = Tally{}
}

// SetTelemetry attaches the agent to a metric registry and flight recorder.
// node identifies this host in trace events.
func (a *Agent) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder, node uint32) {
	a.tel = agentTelemetry{
		ctr:            NewCounters(reg),
		dsr:            reg.Counter("hostagent.dsr").Shard(),
		dsrErrors:      reg.Counter("hostagent.dsr_errors").Shard(),
		dropDecapError: reg.Counter("hostagent.drops.decap_error").Shard(),
		dropNotLocal:   reg.Counter("hostagent.drops.not_local").Shard(),
		rec:            rec,
		node:           node,
	}
}

// New creates the agent for a host.
func New(hostAddr packet.Addr) *Agent {
	a := &Agent{hostAddr: hostAddr}
	a.tab.Store(&agentTables{})
	return a
}

// LocalDIPs returns the local DIPs registered for a VIP.
func (a *Agent) LocalDIPs(vip packet.Addr) []packet.Addr {
	dips, _ := a.tab.Load().locals.Get(vip)
	return dips
}

// RegisterDIP attaches a local DIP serving vip to this host. Registering the
// host's own address as the DIP models the non-virtualized case.
func (a *Agent) RegisterDIP(vip, dip packet.Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := *a.tab.Load()
	if v, ok := t.vipOf.Get(dip); ok && v != vip {
		return fmt.Errorf("hostagent: DIP %s already registered for VIP %s", dip, v)
	} else if !ok {
		dips, _ := t.locals.Get(vip)
		t.locals = t.locals.With(vip, append(slices.Clone(dips), dip))
		t.vipOf = t.vipOf.With(dip, vip)
	}
	t.health = t.health.With(dip, true)
	a.tab.Store(&t)
	return nil
}

// UnregisterDIP detaches a local DIP.
func (a *Agent) UnregisterDIP(dip packet.Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := *a.tab.Load()
	vip, ok := t.vipOf.Get(dip)
	if !ok {
		return ErrUnknownDIP
	}
	t.vipOf, t.health = t.vipOf.Without(dip), t.health.Without(dip)
	dips, _ := t.locals.Get(vip)
	dips = slices.DeleteFunc(slices.Clone(dips), func(d packet.Addr) bool { return d == dip })
	if len(dips) == 0 {
		t.locals = t.locals.Without(vip)
	} else {
		t.locals = t.locals.With(vip, dips)
	}
	a.tab.Store(&t)
	return nil
}

// SetHealth records a DIP's health; the controller reads it via Healthy.
func (a *Agent) SetHealth(dip packet.Addr, healthy bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := *a.tab.Load()
	if _, ok := t.vipOf.Get(dip); !ok {
		return ErrUnknownDIP
	}
	t.health = t.health.With(dip, healthy)
	a.tab.Store(&t)
	return nil
}

// Healthy reports the recorded health of a local DIP.
func (a *Agent) Healthy(dip packet.Addr) bool {
	healthy, _ := a.tab.Load().health.Get(dip)
	return healthy
}

// Delivery is the result of Receive: the decapsulated packet rewritten to
// the selected local DIP.
type Delivery struct {
	VIP    packet.Addr
	DIP    packet.Addr
	Packet []byte
}

// Receive processes one encapsulated packet arriving from a mux: it
// decapsulates the IP-in-IP header, selects the local DIP (by the shared
// 5-tuple hash when several VM DIPs share the host — Figure 6) and rewrites
// the inner destination to the DIP.
//
// The rewritten packet is appended to out: the bytes already in it are left
// untouched and Delivery.Packet is exactly this packet's bytes. Safe for
// concurrent callers.
//
// Receive is the unsampled form for a caller holding only the bytes: it
// parses them, calls ReceiveSampled and counts the one packet (see
// hmux.Process).
//
//duet:hotpath
func (a *Agent) Receive(data, out []byte) (Delivery, error) {
	f, err := a.Parse(data)
	if err != nil {
		return Delivery{}, err
	}
	var t Tally
	d, err := a.ReceiveSampled(data, out, f, ecmp.Hash(f.Tuple), false, &t)
	a.tel.ctr.Flush(&t)
	return d, err
}

// Parse verifies the packet inside data's tunnel header (packet.Parse) and
// returns its flow, the one ReceiveSampled resolves on. A packet that fails
// is counted here, as a decapsulation drop. The tunnel header itself is
// ReceiveSampled's to verify.
//
//duet:hotpath
func (a *Agent) Parse(data []byte) (packet.Flow, error) {
	f, err := packet.Parse(packet.Payload(data))
	if err != nil {
		return f, a.decapError(err)
	}
	return f, nil
}

// decapError counts a packet the agent cannot unwrap and returns err.
//
//duet:hotpath
func (a *Agent) decapError(err error) error {
	a.tel.dropDecapError.Inc()
	a.tel.rec.Record(telemetry.KindDrop, a.tel.node, 0, 0, uint64(telemetry.DropMalformed))
	return err
}

// ReceiveSampled is the agent's one receive body, for a caller that has
// parsed the packet and taken its sampling decision (see
// hmux.Mux.ProcessSampled): f is the flow of the packet inside the tunnel and
// hash its ecmp.Hash, and a delivered packet is counted in tally. The tunnel
// header is the one header new to the agent, and the one it verifies; the
// inner header's destination is rewritten in place of a re-serialisation, so
// a header with options arrives intact.
//
//duet:hotpath
func (a *Agent) ReceiveSampled(data, out []byte, f packet.Flow, hash uint64, sampled bool, tally *Tally) (Delivery, error) {
	inner, _, err := packet.Decapsulate(data)
	if err != nil {
		return Delivery{}, a.decapError(err)
	}
	vip := f.Tuple.Dst
	dips, ok := a.tab.Load().locals.Get(vip)
	if !ok || len(dips) == 0 {
		a.tel.dropNotLocal.Inc()
		a.tel.rec.Record(telemetry.KindDrop, a.tel.node, uint32(vip), 0, uint64(telemetry.DropNotLocal))
		return Delivery{}, ErrNotForThisHost
	}
	dip := dips[0]
	if len(dips) > 1 {
		dip = dips[hash%uint64(len(dips))]
	}

	pkt := append(out, inner...)[len(out):]
	if err := packet.RewriteDst(pkt, dip); err != nil {
		return Delivery{}, a.decapError(err)
	}

	tally.received++
	tally.bytes += uint64(len(inner))
	if sampled {
		a.tel.rec.Record(telemetry.KindDecap, a.tel.node, uint32(vip), uint32(dip), uint64(len(inner)))
	}
	return Delivery{VIP: vip, DIP: dip, Packet: pkt}, nil
}

// SendDSR implements direct server return: an outgoing response whose source
// is a local DIP leaves with the VIP as its source address, bypassing the
// load balancer entirely (paper §2.1). The rewritten packet is appended to
// out under Receive's contract: prefix untouched, exactly this packet's bytes
// returned. Safe for concurrent callers.
func (a *Agent) SendDSR(data, out []byte) ([]byte, error) {
	var ip packet.IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		a.tel.dsrErrors.Inc()
		return nil, err
	}
	vip, ok := a.tab.Load().vipOf.Get(ip.Src)
	if !ok {
		a.tel.dsrErrors.Inc()
		return nil, ErrUnknownDIP
	}
	dip := ip.Src
	pkt := append(out, data...)[len(out):]
	_ = packet.RewriteSrc(pkt, vip) // a header that decoded is long enough
	a.tel.dsr.Inc()
	if a.tel.rec.Sample() {
		a.tel.rec.Record(telemetry.KindDSR, a.tel.node, uint32(vip), uint32(dip), 0)
	}
	return pkt, nil
}
