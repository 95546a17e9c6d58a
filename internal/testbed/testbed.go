// Package testbed is a deterministic discrete-event reproduction of the
// paper's hardware testbed (§7, Figure 10): one core.Cluster on the small
// FatTree — real HMux tables on every switch, three real SMuxes, host agents,
// the routing table and the controller — driven on a virtual clock. What is
// the testbed's own is what §7 measures around the muxes: the event queue
// that puts table-programming and route-propagation delays between the
// cluster's mutators, the background load, and the latency model a probe's
// RTT is drawn from. A probe is a real packet through Cluster.Deliver, every
// 3 ms exactly as the paper's pingers do.
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

	"duet/internal/assign"
	"duet/internal/controller"
	"duet/internal/core"
	"duet/internal/latmodel"
	"duet/internal/packet"
	"duet/internal/service"
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
	LatBGP          = 0.035 // route propagation: the paper's sub-40ms BGP convergence (§7.2)
	LatFailDetect   = 0.003 // neighbor failure detection
)

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

// Testbed drives one cluster on virtual time.
type Testbed struct {
	Cluster *core.Cluster

	ctl *controller.Controller
	rec *telemetry.Recorder // the cluster's flight recorder, on the virtual clock

	smModel latmodel.SMuxModel
	hmModel latmodel.HMuxModel

	// vipLoad is the background offered load per VIP in packets/sec.
	vipLoad map[packet.Addr]float64
	// pktBytes is the background traffic's packet size.
	pktBytes float64

	now    float64
	seq    int
	events eventQueue
	rng    *rand.Rand
}

// New builds the paper's testbed: a cluster on the Figure 10 topology with
// three SMuxes announcing the VIP aggregate (§7: ToRs 1–3 each connect a
// server acting as SMux), and a controller over it.
func New(seed int64) *Testbed {
	c, err := core.New(core.Config{
		Topology:  topology.TestbedConfig(),
		NumSMuxes: 3,
		Aggregate: packet.MustParsePrefix("10.0.0.0/16"),
	})
	must(err) // a constant config: only a bug fails it
	tb := &Testbed{
		Cluster:  c,
		ctl:      controller.New(c, assign.DefaultOptions()),
		smModel:  latmodel.DefaultSMuxModel(),
		hmModel:  latmodel.DefaultHMuxModel(),
		vipLoad:  make(map[packet.Addr]float64),
		pktBytes: 500,
		rng:      rand.New(rand.NewSource(seed)),
	}
	// Trace events — the cluster's, the controller's, the route table's — are
	// stamped with the testbed's virtual clock, making flight-recorder traces
	// fully deterministic for a given seed.
	reg, rec := c.Telemetry()
	rec.SetClock(func() float64 { return tb.now })
	tb.rec = rec
	tb.ctl.SetTelemetry(reg, rec)
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

// AddVIPToSMuxes configures a VIP on the cluster, where it lands on every
// SMux (SMuxes always hold the full map; they are the backstop for every
// VIP). A VIP already configured is left as it is.
func (tb *Testbed) AddVIPToSMuxes(v *service.VIP) error {
	if _, ok := tb.Cluster.VIP(v.Addr); ok {
		return nil
	}
	return tb.Cluster.AddVIP(v)
}

// AssignVIPToHMux programs a VIP onto a switch immediately (no modeled FIB
// latency — use MigrateToHMux for the timed path) and announces its /32.
func (tb *Testbed) AssignVIPToHMux(v *service.VIP, sw topology.SwitchID) error {
	if err := tb.AddVIPToSMuxes(v); err != nil {
		return err
	}
	return tb.Cluster.Place(core.Target{Addr: v.Addr, Switches: []topology.SwitchID{sw}})
}

// SetVIPLoad sets a VIP's background offered load in packets/sec. The load
// follows the VIP to whichever mux currently serves it.
func (tb *Testbed) SetVIPLoad(vip packet.Addr, pps float64) {
	tb.vipLoad[vip] = pps
}

// FailSwitch kills a switch at time at: its dataplane stops instantly;
// neighbors detect the failure and withdraw its routes LatFailDetect+LatBGP
// later (§5.1, §7.2: <40 ms total), which is when the routing change reaches
// the controller and it reacts.
func (tb *Testbed) FailSwitch(sw topology.SwitchID, at float64) {
	tb.Schedule(at, func() {
		tb.Cluster.StopSwitch(sw)
		tb.Schedule(tb.now+LatFailDetect+LatBGP, func() { tb.ctl.HandleSwitchFailure(sw) })
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

// must stops a scenario that asked the cluster for a move it cannot make.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("testbed: %v", err))
	}
}

// MigrateToSMux starts moving a VIP off its HMux on switch sw at time at (the
// first half of the stepping-stone migration, §4.2). Returns the timing
// breakdown. The leg is two events, each a Cluster.Place of the VIP onto the
// SMux tier: the FIB removal once the switch agent has done it (a Hold
// target, its /32 left announced), the route withdrawal once it has
// propagated. The VIP stays reachable throughout: between the two,
// packets arriving at the switch miss the host table and follow the SMux
// aggregate.
func (tb *Testbed) MigrateToSMux(vip packet.Addr, sw topology.SwitchID, at float64) MigrationTiming {
	mt := MigrationTiming{
		DIPsDelay: tb.jitter(LatRemoveDIPs),
		VIPDelay:  tb.jitter(LatRemoveVIPFIB),
		BGPDelay:  tb.jitter(LatBGP),
	}
	tb.rec.RecordAt(at, telemetry.KindMigrationStep, uint32(sw), uint32(vip), 0, 1)
	tb.Schedule(at+mt.DIPsDelay+mt.VIPDelay, func() {
		must(tb.Cluster.Place(core.Target{Addr: vip, Hold: true}))
		tb.rec.RecordAt(tb.now, telemetry.KindTableProgram, uint32(sw), uint32(vip), 1, 0) // B: remove-vip
		tb.Schedule(tb.now+mt.BGPDelay, func() { must(tb.Cluster.Place(core.Target{Addr: vip})) })
	})
	return mt
}

// MigrateToHMux starts moving a VIP onto a switch at time at (the second
// half of the stepping-stone migration): tables first (a Hold target), and
// the /32 — with it the traffic — BGPDelay later. Returns the timing
// breakdown.
func (tb *Testbed) MigrateToHMux(vip packet.Addr, sw topology.SwitchID, at float64) MigrationTiming {
	mt := MigrationTiming{
		DIPsDelay: tb.jitter(LatAddDIPs),
		VIPDelay:  tb.jitter(LatAddVIPFIB),
		BGPDelay:  tb.jitter(LatBGP),
	}
	tb.rec.RecordAt(at, telemetry.KindMigrationStep, uint32(sw), uint32(vip), 0, 2)
	tb.Schedule(at+mt.DIPsDelay+mt.VIPDelay, func() {
		home := core.Target{Addr: vip, Switches: []topology.SwitchID{sw}, Hold: true}
		must(tb.Cluster.Place(home))
		tb.rec.RecordAt(tb.now, telemetry.KindTableProgram, uint32(sw), uint32(vip), 0, 0) // B: add-vip
		home.Hold = false
		tb.Schedule(tb.now+mt.BGPDelay, func() { must(tb.Cluster.Place(home)) })
	})
	return mt
}

// hmuxOfferedBps returns the background bit rate crossing a given switch's
// mux function: the load of every VIP homed there.
func (tb *Testbed) hmuxOfferedBps(sw topology.SwitchID) float64 {
	var total float64
	for vip, pps := range tb.vipLoad {
		if home, ok := tb.Cluster.HomeOf(vip); ok && home == sw {
			total += pps
		}
	}
	return total * tb.pktBytes * 8
}

// smuxBackgroundPPS computes each SMux's current background load: every VIP
// with no home switch — never assigned, or between the halves of a migration
// leg — contributes its pps, split across the SMuxes. A VIP whose home has
// stopped is blackholed and loads nothing.
func (tb *Testbed) smuxBackgroundPPS() float64 {
	var total float64
	for vip, pps := range tb.vipLoad {
		if _, ok := tb.Cluster.HomeOf(vip); !ok {
			total += pps
		}
	}
	return total / float64(len(tb.Cluster.SMuxes))
}

// PingResult is one probe outcome.
type PingResult struct {
	RTT  float64
	Lost bool
	// ViaSMux reports the probe was served by the software backstop.
	ViaSMux bool
}

// Ping probes the tuple's destination VIP at the current virtual time: a UDP
// packet through Cluster.Deliver, and an RTT drawn from the latency model of
// the mux that served it at the background load that mux carries.
func (tb *Testbed) Ping(tuple packet.FiveTuple) PingResult {
	d, err := tb.Cluster.Deliver(packet.BuildUDP(tuple, nil))
	if err != nil {
		// No route, or a dead switch still attracting the VIP's /32: the
		// blackhole of Figure 12's ~38 ms outage window.
		return PingResult{Lost: true}
	}
	if sw, ok := d.HMux(); ok {
		return PingResult{RTT: tb.hmModel.SampleRTT(tb.rng, tb.hmuxOfferedBps(sw))}
	}
	res := PingResult{RTT: tb.smModel.SampleRTT(tb.rng, tb.smuxBackgroundPPS()), ViaSMux: true}
	if d.FIBMiss() {
		res.RTT += 20e-6 // the extra fabric hop from the switch to the SMux
	}
	return res
}
