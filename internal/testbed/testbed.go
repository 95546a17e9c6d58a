// Package testbed is a deterministic discrete-event reproduction of the
// paper's hardware testbed (§7, Figure 10): a small FatTree whose switches
// run real HMux table state, three SMuxes running the real SMux dataplane, a
// BGP control plane with convergence delays, and pingers that probe VIPs
// every 3 ms exactly as the paper's experiments do.
//
// It regenerates the shapes of:
//
//	Figure 11 — HMux capacity: SMuxes saturate at 600K→1.2M pps, the HMux
//	            does not;
//	Figure 12 — VIP availability across an HMux failure (≈38 ms outage,
//	            then SMux backstop);
//	Figure 13 — VIP availability across migration (no loss);
//	Figure 14 — migration delay breakdown (FIB ops dominate).
//
// Virtual time is a float64 in seconds; all randomness is seeded.
package testbed

import (
	"container/heap"
	"fmt"
	"math/rand"

	"duet/internal/bgp"
	"duet/internal/ecmp"
	"duet/internal/hmux"
	"duet/internal/latmodel"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/telemetry"
	"duet/internal/topology"
)

// Operation latencies calibrated to Figure 14 / §7.3: almost all of the
// ~450 ms migration delay is the switch agent's FIB programming; DIP table
// updates and BGP propagation are small.
const (
	LatAddVIPFIB    = 0.400 // add VIP to switch FIB
	LatRemoveVIPFIB = 0.350 // remove VIP from switch FIB
	LatAddDIPs      = 0.060 // program ECMP+tunneling entries
	LatRemoveDIPs   = 0.050
	LatBGP          = bgp.DefaultConvergence // route propagation
	LatFailDetect   = 0.003                  // neighbor failure detection
)

// SMux node IDs start here in the BGP table; switches use their SwitchID.
const smuxNodeBase bgp.NodeID = 10000

// event is one scheduled control-plane action.
type event struct {
	at  float64
	seq int
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Testbed is the simulated cluster.
type Testbed struct {
	Topo   *topology.Topology
	Routes *bgp.Table

	HMuxes []*hmux.Mux // indexed by SwitchID
	SMuxes []*smux.Mux

	switchUp []bool

	smModel latmodel.SMuxModel
	hmModel latmodel.HMuxModel

	// vipLoad is the background offered load per VIP in packets/sec.
	vipLoad map[packet.Addr]float64
	// vipBackends remembers each VIP's configured backend set.
	vipBackends map[packet.Addr][]service.Backend
	// pktBytes is the background traffic's packet size.
	pktBytes float64

	aggregate packet.Prefix

	now    float64
	seq    int
	events eventQueue
	rng    *rand.Rand

	reg *telemetry.Registry
	rec *telemetry.Recorder
}

// New builds the paper's testbed: the Figure 10 topology with an HMux on
// every switch and three SMuxes announcing the VIP aggregate.
func New(seed int64) *Testbed {
	topo := topology.MustNew(topology.TestbedConfig())
	tb := &Testbed{
		Topo:        topo,
		Routes:      bgp.NewTable(),
		HMuxes:      make([]*hmux.Mux, topo.NumSwitches()),
		switchUp:    make([]bool, topo.NumSwitches()),
		smModel:     latmodel.DefaultSMuxModel(),
		hmModel:     latmodel.DefaultHMuxModel(),
		vipLoad:     make(map[packet.Addr]float64),
		vipBackends: make(map[packet.Addr][]service.Backend),
		pktBytes:    500,
		aggregate:   packet.MustParsePrefix("10.0.0.0/16"),
		rng:         rand.New(rand.NewSource(seed)),
		reg:         telemetry.NewRegistry(),
		rec:         telemetry.NewRecorder(telemetry.DefaultRecorderSize),
	}
	// Trace events are stamped with the testbed's virtual clock, making
	// flight-recorder traces fully deterministic for a given seed.
	tb.rec.SetClock(func() float64 { return tb.now })
	tb.Routes.SetTelemetry(tb.reg, tb.rec)
	for s := range tb.HMuxes {
		tb.HMuxes[s] = hmux.New(hmux.DefaultConfig(packet.AddrFrom4(172, 16, 0, byte(s+1))))
		tb.HMuxes[s].SetTelemetry(tb.reg, tb.rec, uint32(s))
		tb.switchUp[s] = true
	}
	// Paper §7: ToRs 1–3 each connect a server acting as SMux.
	for i := 0; i < 3; i++ {
		sm := smux.New(smux.DefaultConfig(packet.AddrFrom4(192, 168, 0, byte(i+1))))
		sm.SetTelemetry(tb.reg, tb.rec, uint32(smuxNodeBase)+uint32(i))
		tb.SMuxes = append(tb.SMuxes, sm)
		tb.Routes.Announce(tb.aggregate, smuxNodeBase+bgp.NodeID(i), 0)
	}
	return tb
}

// Now returns the virtual clock.
func (tb *Testbed) Now() float64 { return tb.now }

// Schedule runs fn at virtual time at (≥ now).
func (tb *Testbed) Schedule(at float64, fn func()) {
	if at < tb.now {
		at = tb.now
	}
	tb.seq++
	heap.Push(&tb.events, event{at: at, seq: tb.seq, fn: fn})
}

// RunUntil advances the clock to t, firing due events in order.
func (tb *Testbed) RunUntil(t float64) {
	for len(tb.events) > 0 && tb.events[0].at <= t {
		e := heap.Pop(&tb.events).(event)
		tb.now = e.at
		e.fn()
	}
	if t > tb.now {
		tb.now = t
	}
}

// AddVIPToSMuxes configures a VIP on every SMux (SMuxes always hold the full
// map; they are the backstop for every VIP).
func (tb *Testbed) AddVIPToSMuxes(v *service.VIP) error {
	for _, sm := range tb.SMuxes {
		if sm.HasVIP(v.Addr) {
			continue
		}
		if err := sm.AddVIP(v); err != nil {
			return err
		}
	}
	tb.vipBackends[v.Addr] = v.Backends
	return nil
}

// AssignVIPToHMux programs a VIP onto a switch immediately (no modeled FIB
// latency — use MigrateToHMux for the timed path) and announces its /32.
func (tb *Testbed) AssignVIPToHMux(v *service.VIP, sw topology.SwitchID) error {
	if err := tb.AddVIPToSMuxes(v); err != nil {
		return err
	}
	if err := tb.HMuxes[sw].AddVIP(v); err != nil {
		return err
	}
	tb.Routes.Announce(packet.HostPrefix(v.Addr), bgp.NodeID(sw), tb.now)
	return nil
}

// SetVIPLoad sets a VIP's background offered load in packets/sec. The load
// follows the VIP to whichever mux currently serves it.
func (tb *Testbed) SetVIPLoad(vip packet.Addr, pps float64) {
	tb.vipLoad[vip] = pps
}

// FailSwitch kills a switch at time at: its dataplane stops instantly;
// neighbors detect the failure and withdraw its routes, converged
// LatFailDetect+LatBGP later (§5.1, §7.2: <40 ms total).
func (tb *Testbed) FailSwitch(sw topology.SwitchID, at float64) {
	tb.Schedule(at, func() {
		tb.switchUp[sw] = false
		tb.rec.RecordAt(tb.now, telemetry.KindSwitchFail, uint32(sw), 0, 0, 0)
		tb.Routes.WithdrawAll(bgp.NodeID(sw), tb.now+LatFailDetect+LatBGP)
		// The controller reacts once the withdrawal has converged and the
		// routing change is visible to it (§5.1).
		tb.rec.RecordAt(tb.now+LatFailDetect+LatBGP, telemetry.KindControllerReact, uint32(sw), 0, 0, 0)
	})
}

// MigrationTiming is the Figure 14 breakdown of one migration leg.
type MigrationTiming struct {
	DIPsDelay float64 // program/remove ECMP+tunnel entries
	VIPDelay  float64 // FIB host-table operation
	BGPDelay  float64 // route propagation
}

// Total returns the end-to-end delay of the leg.
func (mt MigrationTiming) Total() float64 { return mt.DIPsDelay + mt.VIPDelay + mt.BGPDelay }

// jitter returns d ± 10%.
func (tb *Testbed) jitter(d float64) float64 {
	return d * (0.9 + 0.2*tb.rng.Float64())
}

// MigrateToSMux starts moving a VIP off its HMux at time at (the first half
// of the stepping-stone migration, §4.2). Returns the timing breakdown.
// The VIP stays reachable throughout: after the FIB removal and before BGP
// convergence, packets arriving at the switch miss the host table and follow
// the SMux aggregate.
func (tb *Testbed) MigrateToSMux(vip packet.Addr, sw topology.SwitchID, at float64) MigrationTiming {
	mt := MigrationTiming{
		DIPsDelay: tb.jitter(LatRemoveDIPs),
		VIPDelay:  tb.jitter(LatRemoveVIPFIB),
		BGPDelay:  tb.jitter(LatBGP),
	}
	tb.rec.RecordAt(at, telemetry.KindMigrationStep, uint32(sw), uint32(vip), 0, 1)
	fibDone := at + mt.DIPsDelay + mt.VIPDelay
	tb.Schedule(fibDone, func() {
		if tb.HMuxes[sw].HasVIP(vip) {
			if err := tb.HMuxes[sw].RemoveVIP(vip); err != nil {
				panic(fmt.Sprintf("testbed: remove VIP: %v", err))
			}
		}
		tb.rec.RecordAt(tb.now, telemetry.KindTableProgram, uint32(sw), uint32(vip), uint32(1), 0)
		tb.Routes.Withdraw(packet.HostPrefix(vip), bgp.NodeID(sw), tb.now+mt.BGPDelay)
	})
	return mt
}

// MigrateToHMux starts moving a VIP onto a switch at time at (the second
// half of the stepping-stone migration). Returns the timing breakdown.
func (tb *Testbed) MigrateToHMux(vip packet.Addr, sw topology.SwitchID, at float64) MigrationTiming {
	mt := MigrationTiming{
		DIPsDelay: tb.jitter(LatAddDIPs),
		VIPDelay:  tb.jitter(LatAddVIPFIB),
		BGPDelay:  tb.jitter(LatBGP),
	}
	tb.rec.RecordAt(at, telemetry.KindMigrationStep, uint32(sw), uint32(vip), 0, 2)
	fibDone := at + mt.DIPsDelay + mt.VIPDelay
	tb.Schedule(fibDone, func() {
		backends, ok := tb.vipBackends[vip]
		if !ok {
			panic("testbed: migrating unknown VIP")
		}
		if !tb.HMuxes[sw].HasVIP(vip) {
			if err := tb.HMuxes[sw].AddVIP(&service.VIP{Addr: vip, Backends: backends}); err != nil {
				panic(fmt.Sprintf("testbed: add VIP: %v", err))
			}
		}
		tb.rec.RecordAt(tb.now, telemetry.KindTableProgram, uint32(sw), uint32(vip), uint32(0), 0)
		tb.Routes.Announce(packet.HostPrefix(vip), bgp.NodeID(sw), tb.now+mt.BGPDelay)
	})
	return mt
}

// hmuxOfferedBps returns the background bit rate crossing a given switch's
// mux function.
func (tb *Testbed) hmuxOfferedBps(sw topology.SwitchID) float64 {
	var total float64
	for vip, pps := range tb.vipLoad {
		nhs, _, ok := tb.Routes.Lookup(vip, tb.now)
		if !ok {
			continue
		}
		for _, nh := range nhs {
			if nh == bgp.NodeID(sw) {
				total += pps / float64(len(nhs))
			}
		}
	}
	return total * tb.pktBytes * 8
}

// PingResult is one probe outcome.
type PingResult struct {
	RTT  float64
	Lost bool
	// ViaSMux reports the probe was served by the software backstop.
	ViaSMux bool
}

// Ping probes a VIP at the current virtual time with the given flow tuple,
// resolving routing, mux state and load exactly as the fabric would.
func (tb *Testbed) Ping(vip packet.Addr, tuple packet.FiveTuple) PingResult {
	nhs, _, ok := tb.Routes.Lookup(vip, tb.now)
	if !ok || len(nhs) == 0 {
		return PingResult{Lost: true}
	}
	// ECMP among equal next hops by flow hash.
	nh := nhs[int(ecmp.Hash(tuple)%uint64(len(nhs)))]

	if nh >= smuxNodeBase {
		return tb.pingViaSMux()
	}

	sw := topology.SwitchID(nh)
	if !tb.switchUp[sw] {
		// Dead switch still attracting routes: blackhole (Figure 12's
		// ~38 ms outage window).
		return PingResult{Lost: true}
	}
	if tb.HMuxes[sw].HasVIP(vip) {
		rtt := tb.hmModel.SampleRTT(tb.rng, tb.hmuxOfferedBps(sw))
		return PingResult{RTT: rtt}
	}
	// FIB miss (VIP being migrated): the packet follows the aggregate to an
	// SMux — one extra in-fabric hop, then software processing.
	res := tb.pingViaSMux()
	res.RTT += 20e-6 // extra fabric hop to reach the SMux
	return res
}

func (tb *Testbed) pingViaSMux() PingResult {
	pps := tb.smuxBackgroundPPS()
	rtt := tb.smModel.SampleRTT(tb.rng, pps)
	return PingResult{RTT: rtt, ViaSMux: true}
}

// smuxBackgroundPPS computes each SMux's current background load: every VIP
// whose traffic lands on the SMux layer (explicitly routed there, or falling
// through a FIB miss) contributes its pps, split across the SMuxes.
func (tb *Testbed) smuxBackgroundPPS() float64 {
	var total float64
	for vip, pps := range tb.vipLoad {
		if pps == 0 {
			continue
		}
		nhs, _, ok := tb.Routes.Lookup(vip, tb.now)
		if !ok || len(nhs) == 0 {
			continue // blackholed
		}
		// A VIP's load is on the SMuxes if its preferred next hop is an
		// SMux, or a live switch without the FIB entry (migration window).
		nh := nhs[0]
		if nh >= smuxNodeBase {
			total += pps
			continue
		}
		sw := topology.SwitchID(nh)
		if tb.switchUp[sw] && !tb.HMuxes[sw].HasVIP(vip) {
			total += pps
		}
	}
	return total / float64(len(tb.SMuxes))
}
