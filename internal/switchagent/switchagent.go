// Package switchagent implements the switch agent of Figure 9: the
// per-switch daemon that receives VIP/DIP (re)configuration requests from
// the Duet controller's assignment updater, programs the switch's ECMP and
// tunneling tables through the vendor API, and fires routing updates over
// BGP whenever a VIP appears or disappears.
//
// The agent models what §7.3 measures: table programming takes real time
// (the FIB VIP operation dominates, Figure 14), operations on one switch
// apply strictly in order, and a request is acknowledged only after the
// tables AND the route announcement have been issued. The agent keeps no
// history: a blank switch node is brought back by delta replication, which
// owns the desired state.
package switchagent

import (
	"errors"
	"fmt"

	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/telemetry"
)

// Op kinds accepted by the agent (the "RESTful API" of §6).
type OpKind uint8

const (
	// OpAddVIP programs a VIP's ECMP+tunnel entries and announces its /32.
	OpAddVIP OpKind = iota
	// OpRemoveVIP withdraws the /32 and releases the VIP's entries.
	OpRemoveVIP
	// OpRemoveDIP removes one DIP resiliently, keeping the VIP in place.
	OpRemoveDIP
	// OpAddTIP programs a TIP partition (§5.2 large fanout).
	OpAddTIP
	// OpRemoveTIP removes a TIP partition.
	OpRemoveTIP
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpAddVIP:
		return "add-vip"
	case OpRemoveVIP:
		return "remove-vip"
	case OpRemoveDIP:
		return "remove-dip"
	case OpAddTIP:
		return "add-tip"
	case OpRemoveTIP:
		return "remove-tip"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one configuration request.
type Op struct {
	Kind     OpKind
	VIP      *service.VIP      // OpAddVIP
	Addr     packet.Addr       // OpRemoveVIP / OpRemoveDIP (VIP) / TIP ops
	DIP      packet.Addr       // OpRemoveDIP
	Backends []service.Backend // OpAddTIP
}

// Announcer receives the agent's routing-side effects; the fabric's BGP
// layer implements it.
type Announcer interface {
	Announce(p packet.Prefix, visibleAt float64)
	Withdraw(p packet.Prefix, effectiveAt float64)
}

// Timing models programming latency in seconds (Figure 14 calibration).
type Timing struct {
	AddVIPFIB    float64
	RemoveVIPFIB float64
	AddDIPs      float64
	RemoveDIPs   float64
	BGP          float64
}

// Instant returns zero-latency timing (for control-plane unit tests).
func Instant() Timing { return Timing{} }

// Ack reports a completed operation.
type Ack struct {
	Op Op
	// DoneAt is when the tables were programmed; RoutedAt is when the
	// route change has converged fabric-wide.
	DoneAt, RoutedAt float64
	Err              error
}

// Agent drives one switch.
type Agent struct {
	mux      *hmux.Mux
	announce Announcer
	timing   Timing

	// busyUntil serializes table programming on the switch ASIC.
	busyUntil float64

	tel agentTelemetry
}

// agentTelemetry holds the switch agent's instrument handles (all nil-safe).
type agentTelemetry struct {
	ops      telemetry.CounterShard
	opErrors telemetry.CounterShard
	progSecs *telemetry.Histogram
	backlog  *telemetry.Gauge
	rec      *telemetry.Recorder
	node     uint32
}

// SetTelemetry attaches the agent to a metric registry and flight recorder.
// node identifies the switch in trace events. Table-programming latency is
// observed into "switchagent.program.seconds" with bounds spanning the §7.3
// measurements (DIP-only ops ~50-60ms up to queued FIB ops near a second).
func (a *Agent) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder, node uint32) {
	a.tel = agentTelemetry{
		ops:      reg.Counter("switchagent.ops").Shard(),
		opErrors: reg.Counter("switchagent.op_errors").Shard(),
		progSecs: reg.Histogram("switchagent.program.seconds", []float64{0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6}),
		backlog:  reg.Gauge("switchagent.backlog_ms"),
		rec:      rec,
		node:     node,
	}
}

// ErrNoMux is returned when the agent has no switch attached.
var ErrNoMux = errors.New("switchagent: no switch attached")

// New creates an agent for a switch. announcer may be nil (no routing side
// effects — useful for table-only tests).
func New(mux *hmux.Mux, announcer Announcer, timing Timing) *Agent {
	return &Agent{mux: mux, announce: announcer, timing: timing}
}

// Mux exposes the attached switch (tests and the datapath need it).
func (a *Agent) Mux() *hmux.Mux { return a.mux }

// Submit applies one operation at virtual time now and returns its ack.
// Operations serialize: if the ASIC is still busy from a previous op, this
// one queues behind it.
func (a *Agent) Submit(op Op, now float64) Ack {
	if a.mux == nil {
		return a.fail(op, now, ErrNoMux)
	}
	start := now
	if a.busyUntil > start {
		start = a.busyUntil
	}
	var tableDelay float64
	var err error
	var route func(doneAt float64)

	switch op.Kind {
	case OpAddVIP:
		tableDelay = a.timing.AddDIPs + a.timing.AddVIPFIB
		err = a.mux.AddVIP(op.VIP)
		if err == nil {
			addr := op.VIP.Addr
			route = func(doneAt float64) {
				if a.announce != nil {
					a.announce.Announce(packet.HostPrefix(addr), doneAt+a.timing.BGP)
				}
			}
		}
	case OpRemoveVIP:
		tableDelay = a.timing.RemoveDIPs + a.timing.RemoveVIPFIB
		err = a.mux.RemoveVIP(op.Addr)
		if err == nil {
			addr := op.Addr
			route = func(doneAt float64) {
				if a.announce != nil {
					a.announce.Withdraw(packet.HostPrefix(addr), doneAt+a.timing.BGP)
				}
			}
		}
	case OpRemoveDIP:
		tableDelay = a.timing.RemoveDIPs
		err = a.mux.RemoveBackend(op.Addr, op.DIP)
	case OpAddTIP:
		tableDelay = a.timing.AddDIPs
		err = a.mux.AddTIP(op.Addr, op.Backends)
		if err == nil {
			addr := op.Addr
			route = func(doneAt float64) {
				if a.announce != nil {
					a.announce.Announce(packet.HostPrefix(addr), doneAt+a.timing.BGP)
				}
			}
		}
	case OpRemoveTIP:
		tableDelay = a.timing.RemoveDIPs
		err = a.mux.RemoveTIP(op.Addr)
		if err == nil {
			addr := op.Addr
			route = func(doneAt float64) {
				if a.announce != nil {
					a.announce.Withdraw(packet.HostPrefix(addr), doneAt+a.timing.BGP)
				}
			}
		}
	default:
		return a.fail(op, now, fmt.Errorf("switchagent: unknown op %v", op.Kind))
	}

	if err != nil {
		return a.fail(op, now, err)
	}
	doneAt := start + tableDelay
	a.busyUntil = doneAt
	routedAt := doneAt
	if route != nil {
		route(doneAt)
		routedAt = doneAt + a.timing.BGP
	}
	a.tel.ops.Inc()
	a.tel.progSecs.Observe(doneAt - now) // includes queueing behind a busy ASIC
	a.tel.backlog.Set(int64((doneAt - now) * 1000))
	// A=the affected address, B=op kind; stamped with the virtual completion
	// time so the trace interleaves correctly with BGP convergence events.
	addr := op.Addr
	if op.Kind == OpAddVIP {
		addr = op.VIP.Addr
	}
	a.tel.rec.RecordAt(doneAt, telemetry.KindTableProgram, a.tel.node, uint32(addr), uint32(op.Kind), 0)
	return Ack{Op: op, DoneAt: doneAt, RoutedAt: routedAt}
}

func (a *Agent) fail(op Op, now float64, err error) Ack {
	a.tel.opErrors.Inc()
	return Ack{Op: op, DoneAt: now, RoutedAt: now, Err: err}
}
