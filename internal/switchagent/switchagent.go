// Package switchagent implements the switch agent of Figure 9: the
// per-switch daemon that receives VIP/DIP (re)configuration requests from
// the Duet controller's assignment updater, programs the switch's ECMP and
// tunneling tables through the vendor API, and fires routing updates over
// BGP whenever a VIP appears or disappears.
//
// Operations on one switch apply strictly in order (the caller serializes
// Submit) and a request is acknowledged only after the tables AND the route
// announcement have been issued. How long the ASIC takes (§7.3, Figure 14) is
// not modelled here: internal/testbed owns those latencies. The agent keeps
// no history: a blank switch node is brought back by delta replication, which
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
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpAddVIP:
		return "add-vip"
	case OpRemoveVIP:
		return "remove-vip"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one configuration request.
type Op struct {
	Kind OpKind
	VIP  *service.VIP // OpAddVIP
	Addr packet.Addr  // OpRemoveVIP
}

// Announcer receives the agent's routing-side effects; the fabric's BGP
// layer implements it.
type Announcer interface {
	Announce(p packet.Prefix)
	Withdraw(p packet.Prefix)
}

// Agent drives one switch.
type Agent struct {
	mux      *hmux.Mux
	announce Announcer

	tel agentTelemetry
}

// agentTelemetry holds the switch agent's instrument handles (all nil-safe).
type agentTelemetry struct {
	ops      telemetry.CounterShard
	opErrors telemetry.CounterShard
	rec      *telemetry.Recorder
	node     uint32
}

// SetTelemetry attaches the agent to a metric registry and flight recorder.
// node identifies the switch in trace events.
func (a *Agent) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder, node uint32) {
	a.tel = agentTelemetry{
		ops:      reg.Counter("switchagent.ops").Shard(),
		opErrors: reg.Counter("switchagent.op_errors").Shard(),
		rec:      rec,
		node:     node,
	}
}

// ErrNoMux is returned when the agent has no switch attached.
var ErrNoMux = errors.New("switchagent: no switch attached")

// New creates an agent for a switch. announcer may be nil (no routing side
// effects — useful for table-only tests).
func New(mux *hmux.Mux, announcer Announcer) *Agent {
	return &Agent{mux: mux, announce: announcer}
}

// Mux exposes the attached switch (tests and the datapath need it).
func (a *Agent) Mux() *hmux.Mux { return a.mux }

// Submit applies one operation: the tables first, then the route change. A
// failed operation changes neither and is counted.
func (a *Agent) Submit(op Op) error {
	err := a.apply(op)
	if err != nil {
		a.tel.opErrors.Inc()
		return err
	}
	a.tel.ops.Inc()
	return nil
}

func (a *Agent) apply(op Op) error {
	if a.mux == nil {
		return ErrNoMux
	}
	addr := op.Addr
	switch op.Kind {
	case OpAddVIP:
		addr = op.VIP.Addr
		if err := a.mux.AddVIP(op.VIP); err != nil {
			return err
		}
		if a.announce != nil {
			a.announce.Announce(packet.HostPrefix(addr))
		}
	case OpRemoveVIP:
		if err := a.mux.RemoveVIP(addr); err != nil {
			return err
		}
		if a.announce != nil {
			a.announce.Withdraw(packet.HostPrefix(addr))
		}
	default:
		return fmt.Errorf("switchagent: unknown op %v", op.Kind)
	}
	// A = the affected address, B = op kind.
	a.tel.rec.Record(telemetry.KindTableProgram, a.tel.node, uint32(addr), uint32(op.Kind), 0)
	return nil
}
