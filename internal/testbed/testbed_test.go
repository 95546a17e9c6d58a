package testbed

import (
	"errors"
	"reflect"
	"testing"

	"duet/internal/core"
	"duet/internal/latmodel"
	"duet/internal/metrics"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/telemetry"
	"duet/internal/topology"
)

func vipN(i int) packet.Addr { return packet.AddrFrom4(10, 0, 0, byte(i+1)) }

func backendsFor(i int) []service.Backend {
	return []service.Backend{
		{Addr: packet.AddrFrom4(100, 0, byte(i), 1), Weight: 1},
		{Addr: packet.AddrFrom4(100, 0, byte(i), 2), Weight: 1},
	}
}

func probeTuple(i uint32) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.AddrFrom4(30, 0, byte(i>>8), byte(i)), Dst: 0, // Dst set by caller
		SrcPort: uint16(1024 + i), DstPort: 7, Proto: packet.ProtoUDP,
	}
}

// pingSeries probes a VIP every 3 ms over [from, to) and returns results.
func pingSeries(tb *Testbed, vip packet.Addr, from, to float64) []PingResult {
	var out []PingResult
	i := uint32(0)
	for t := from; t < to; t += 0.003 {
		tb.RunUntil(t)
		tuple := probeTuple(i)
		tuple.Dst = vip
		out = append(out, tb.Ping(tuple))
		i++
	}
	return out
}

func TestPingOnSMux(t *testing.T) {
	tb := New(1)
	v := &service.VIP{Addr: vipN(0), Backends: backendsFor(0)}
	if err := tb.AddVIPToSMuxes(v); err != nil {
		t.Fatal(err)
	}
	res := pingSeries(tb, v.Addr, 0, 0.3)
	for _, r := range res {
		if r.Lost {
			t.Fatal("unloaded SMux VIP lost pings")
		}
		if !r.ViaSMux {
			t.Fatal("SMux VIP not served by SMux")
		}
		if r.RTT < latmodel.BaseRTT {
			t.Fatal("RTT below base")
		}
	}
}

func TestPingOnHMuxFastPath(t *testing.T) {
	tb := New(2)
	v := &service.VIP{Addr: vipN(0), Backends: backendsFor(0)}
	if err := tb.AssignVIPToHMux(v, tb.Cluster.Topo.TorID(0, 0)); err != nil {
		t.Fatal(err)
	}
	tb.RunUntil(1.0)
	res := pingSeries(tb, v.Addr, 1.0, 1.3)
	for _, r := range res {
		if r.Lost || r.ViaSMux {
			t.Fatalf("HMux VIP mis-served: %+v", r)
		}
		// HMux adds only microseconds over base RTT.
		if r.RTT > latmodel.BaseRTT+20e-6 {
			t.Fatalf("HMux RTT %.0fµs too high", r.RTT*1e6)
		}
	}
}

func TestUnknownVIPLost(t *testing.T) {
	tb := New(3)
	tuple := probeTuple(0)
	tuple.Dst = packet.MustParseAddr("99.9.9.9")
	if r := tb.Ping(tuple); !r.Lost {
		t.Fatal("unknown VIP should be lost")
	}
}

// TestFigure11HMuxCapacity reproduces the §7.1 experiment: 10 loaded VIPs +
// 1 unloaded probe VIP. At 600K pps the SMuxes keep up (200K each); at 1.2M
// pps they saturate and the probe's latency blows past 1 ms; after moving
// the VIPs to an HMux the latency returns to microseconds.
func TestFigure11HMuxCapacity(t *testing.T) {
	tb := New(4)
	probe := &service.VIP{Addr: vipN(10), Backends: backendsFor(10)}
	if err := tb.AddVIPToSMuxes(probe); err != nil {
		t.Fatal(err)
	}
	loaded := make([]*service.VIP, 10)
	for i := range loaded {
		loaded[i] = &service.VIP{Addr: vipN(i), Backends: backendsFor(i)}
		if err := tb.AddVIPToSMuxes(loaded[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: 600K pps total → 200K per SMux (within capacity).
	for i := range loaded {
		tb.SetVIPLoad(loaded[i].Addr, 60_000)
	}
	p1 := pingSeries(tb, probe.Addr, 0, 3)

	// Phase 2: 1.2M pps total → 400K per SMux (beyond 300K capacity).
	for i := range loaded {
		tb.SetVIPLoad(loaded[i].Addr, 120_000)
	}
	p2 := pingSeries(tb, probe.Addr, 3, 6)

	// Phase 3: all VIPs (incl. probe) move to one HMux.
	sw := tb.Cluster.Topo.TorID(0, 0)
	for _, v := range append(loaded, probe) {
		tb.MigrateToHMux(v.Addr, sw, tb.Now())
	}
	tb.RunUntil(8) // let FIB + BGP settle
	p3 := pingSeries(tb, probe.Addr, 8, 11)

	med := func(rs []PingResult) float64 {
		var lat []float64
		for _, r := range rs {
			if !r.Lost {
				lat = append(lat, r.RTT)
			}
		}
		return metrics.Quantile(lat, 0.5)
	}
	m1, m2, m3 := med(p1), med(p2), med(p3)
	t.Logf("median RTT: 600k=%.2fms 1.2M=%.2fms HMux=%.3fms", m1*1e3, m2*1e3, m3*1e3)

	// Paper: phase 1 below ~1ms, phase 2 queue buildup (≈10-25ms in Fig 11),
	// phase 3 back to ~base RTT.
	if m1 > 2e-3 {
		t.Fatalf("600K pps median %.2fms, want <2ms", m1*1e3)
	}
	if m2 < 5e-3 {
		t.Fatalf("1.2M pps median %.2fms, want ≥5ms (saturated)", m2*1e3)
	}
	if m3 > 1e-3 {
		t.Fatalf("HMux median %.2fms, want ~base RTT", m3*1e3)
	}
	if m3 >= m1 {
		t.Fatal("HMux should beat unloaded SMux latency")
	}
}

// TestFigure12FailureMitigation reproduces §7.2: a VIP on a failed HMux is
// blackholed for the BGP convergence window (≈38 ms), then fully served by
// the SMux backstop; VIPs on other HMuxes and on SMuxes are unaffected.
func TestFigure12FailureMitigation(t *testing.T) {
	tb := New(5)
	vipSMux := &service.VIP{Addr: vipN(0), Backends: backendsFor(0)}
	vipHealthy := &service.VIP{Addr: vipN(1), Backends: backendsFor(1)}
	vipFailed := &service.VIP{Addr: vipN(2), Backends: backendsFor(2)}
	if err := tb.AddVIPToSMuxes(vipSMux); err != nil {
		t.Fatal(err)
	}
	if err := tb.AssignVIPToHMux(vipHealthy, tb.Cluster.Topo.TorID(0, 1)); err != nil {
		t.Fatal(err)
	}
	failSW := tb.Cluster.Topo.AggID(1, 0)
	if err := tb.AssignVIPToHMux(vipFailed, failSW); err != nil {
		t.Fatal(err)
	}
	tb.RunUntil(0.1)

	const tFail = 0.2
	tb.FailSwitch(failSW, tFail)

	type sample struct {
		t   float64
		res PingResult
	}
	var failedSamples, healthySamples, smuxSamples []sample
	i := uint32(0)
	for ts := 0.1; ts < 0.5; ts += 0.003 {
		tb.RunUntil(ts)
		for _, probe := range []struct {
			vip packet.Addr
			out *[]sample
		}{
			{vipFailed.Addr, &failedSamples},
			{vipHealthy.Addr, &healthySamples},
			{vipSMux.Addr, &smuxSamples},
		} {
			tuple := probeTuple(i)
			tuple.Dst = probe.vip
			*probe.out = append(*probe.out, sample{ts, tb.Ping(tuple)})
			i++
		}
	}

	// The failed VIP: lost during [tFail, tFail+~38ms], then on SMux.
	var firstLoss, lastLoss = -1.0, -1.0
	for _, s := range failedSamples {
		if s.res.Lost {
			if firstLoss < 0 {
				firstLoss = s.t
			}
			lastLoss = s.t
		}
	}
	if firstLoss < 0 {
		t.Fatal("failure caused no loss at all")
	}
	outage := lastLoss - firstLoss + 0.003
	if firstLoss < tFail {
		t.Fatalf("loss before failure at %v", firstLoss)
	}
	if outage > 0.060 {
		t.Fatalf("outage %.0fms, paper reports <40ms", outage*1e3)
	}
	// After convergence, traffic flows via SMux.
	for _, s := range failedSamples {
		if s.t > tFail+0.060 {
			if s.res.Lost {
				t.Fatalf("VIP still lost at %.3fs after convergence", s.t)
			}
			if !s.res.ViaSMux {
				t.Fatalf("failed-over VIP not on SMux at %.3fs", s.t)
			}
		}
	}
	// Unaffected VIPs never lose a ping.
	for _, s := range append(healthySamples, smuxSamples...) {
		if s.res.Lost {
			t.Fatalf("unrelated VIP lost ping at %.3fs", s.t)
		}
	}
}

// TestFigure13MigrationNoLoss reproduces §7.3: VIPs stay available during
// H→S, S→H and H→H (via SMux) migration; no ping is ever lost because there
// is no failure detection involved.
func TestFigure13MigrationNoLoss(t *testing.T) {
	tb := New(6)
	v1 := &service.VIP{Addr: vipN(1), Backends: backendsFor(1)} // H→S
	v2 := &service.VIP{Addr: vipN(2), Backends: backendsFor(2)} // S→H
	v3 := &service.VIP{Addr: vipN(3), Backends: backendsFor(3)} // H→H via SMux
	swA := tb.Cluster.Topo.TorID(0, 0)
	swB := tb.Cluster.Topo.TorID(1, 1)
	if err := tb.AssignVIPToHMux(v1, swA); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddVIPToSMuxes(v2); err != nil {
		t.Fatal(err)
	}
	if err := tb.AssignVIPToHMux(v3, swA); err != nil {
		t.Fatal(err)
	}
	tb.RunUntil(0.1)

	// T1: migrate v1 H→S and v3 H→S (first leg).
	tb.MigrateToSMux(v1.Addr, swA, 0.2)
	mt3 := tb.MigrateToSMux(v3.Addr, swA, 0.2)
	// T2: after the first leg converges, v2 S→H and v3 S→H (second leg).
	second := 0.2 + mt3.Total() + 0.05
	tb.MigrateToHMux(v2.Addr, swB, second)
	tb.MigrateToHMux(v3.Addr, swB, second)

	lost := 0
	i := uint32(0)
	for ts := 0.1; ts < 2.0; ts += 0.003 {
		tb.RunUntil(ts)
		for _, vip := range []packet.Addr{v1.Addr, v2.Addr, v3.Addr} {
			tuple := probeTuple(i)
			tuple.Dst = vip
			if tb.Ping(tuple).Lost {
				lost++
			}
			i++
		}
	}
	if lost != 0 {
		t.Fatalf("%d pings lost during migration; paper reports zero", lost)
	}

	// Final placement: v1 on SMux, v2 and v3 on HMux swB.
	tb.RunUntil(3)
	viaSMux := func(vip packet.Addr) bool {
		tuple := probeTuple(i)
		tuple.Dst = vip
		return tb.Ping(tuple).ViaSMux
	}
	if !viaSMux(v1.Addr) {
		t.Fatal("v1 should be on SMux")
	}
	if viaSMux(v2.Addr) || viaSMux(v3.Addr) {
		t.Fatal("v2/v3 should be on HMux")
	}
	if sw, ok := tb.Cluster.HomeOf(v3.Addr); !ok || sw != swB || tb.Cluster.HMuxes[swA].HasVIP(v3.Addr) {
		t.Fatal("v3 not moved swA→swB")
	}
}

// TestFigure14Breakdown checks the migration delay decomposition: the FIB
// VIP operation dominates (80–90% of total, §7.3).
func TestFigure14Breakdown(t *testing.T) {
	tb := New(7)
	v := &service.VIP{Addr: vipN(0), Backends: backendsFor(0)}
	if err := tb.AddVIPToSMuxes(v); err != nil {
		t.Fatal(err)
	}
	mtAdd := tb.MigrateToHMux(v.Addr, tb.Cluster.Topo.TorID(0, 0), 0.1)
	if frac := mtAdd.VIPDelay / mtAdd.Total(); frac < 0.7 {
		t.Fatalf("FIB VIP op is %.0f%% of add delay, paper reports 80-90%%", frac*100)
	}
	if mtAdd.Total() < 0.3 || mtAdd.Total() > 0.7 {
		t.Fatalf("add migration total %.0fms, paper reports ~450ms", mtAdd.Total()*1e3)
	}
	tb.RunUntil(1)
	mtDel := tb.MigrateToSMux(v.Addr, tb.Cluster.Topo.TorID(0, 0), 1.1)
	if frac := mtDel.VIPDelay / mtDel.Total(); frac < 0.7 {
		t.Fatalf("FIB VIP op is %.0f%% of delete delay", frac*100)
	}
	if mtDel.BGPDelay > 0.1 || mtAdd.BGPDelay > 0.1 {
		t.Fatal("BGP component should be tens of ms")
	}
}

func TestScheduleOrdering(t *testing.T) {
	tb := New(8)
	var order []int
	tb.Schedule(0.2, func() { order = append(order, 2) })
	tb.Schedule(0.1, func() { order = append(order, 1) })
	tb.Schedule(0.2, func() { order = append(order, 3) }) // same time: FIFO by seq
	tb.RunUntil(0.3)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("event order = %v", order)
	}
	if tb.Now() != 0.3 {
		t.Fatalf("clock = %v", tb.Now())
	}
	// Scheduling in the past clamps to now.
	fired := false
	tb.Schedule(0.0, func() { fired = true })
	tb.RunUntil(0.3)
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
}

func TestVIPLoadFollowsVIP(t *testing.T) {
	tb := New(9)
	v := &service.VIP{Addr: vipN(0), Backends: backendsFor(0)}
	if err := tb.AddVIPToSMuxes(v); err != nil {
		t.Fatal(err)
	}
	tb.SetVIPLoad(v.Addr, 900_000) // 300K per SMux: saturation
	if pps := tb.smuxBackgroundPPS(); pps != 300_000 {
		t.Fatalf("per-SMux pps = %v", pps)
	}
	// Move the VIP to an HMux: SMux load drops to zero.
	tb.MigrateToHMux(v.Addr, tb.Cluster.Topo.TorID(0, 0), 0.1)
	tb.RunUntil(2)
	if pps := tb.smuxBackgroundPPS(); pps != 0 {
		t.Fatalf("per-SMux pps after migration = %v", pps)
	}
	if bps := tb.hmuxOfferedBps(tb.Cluster.Topo.TorID(0, 0)); bps <= 0 {
		t.Fatal("HMux sees no offered load")
	}
}

// failoverTrace runs the Figure 12 failover scenario — VIP on an HMux, the
// switch dies, the controller re-places the VIP on another switch — and
// returns the flight-recorder trace.
func failoverTrace(seed int64) []telemetry.Event {
	tb := New(seed)
	v := &service.VIP{Addr: vipN(7), Backends: backendsFor(7)}
	failSW := tb.Cluster.Topo.AggID(1, 0)
	if err := tb.AssignVIPToHMux(v, failSW); err != nil {
		panic(err)
	}
	tb.RunUntil(0.1)
	tb.FailSwitch(failSW, 0.2)
	tb.RunUntil(0.3)
	tb.MigrateToHMux(v.Addr, tb.Cluster.Topo.TorID(0, 0), 0.3)
	tb.RunUntil(1.0)
	return tb.rec.Snapshot()
}

// TestFailoverFlightRecorderTrace checks the tentpole's acceptance
// scenario: a testbed failover leaves a deterministic trace containing the
// BGP withdrawal, the controller reaction, and the table reprogramming in
// causal order on the virtual clock.
func TestFailoverFlightRecorderTrace(t *testing.T) {
	evs := failoverTrace(5)
	vip := uint32(vipN(7))

	// Locate the causal chain after the failure event.
	order := []struct {
		kind  telemetry.Kind
		match func(e telemetry.Event) bool
	}{
		{telemetry.KindSwitchFail, func(e telemetry.Event) bool { return true }},
		{telemetry.KindBGPWithdraw, func(e telemetry.Event) bool { return e.A == vip }},
		{telemetry.KindControllerReact, func(e telemetry.Event) bool { return true }},
		{telemetry.KindMigrationStep, func(e telemetry.Event) bool { return e.A == vip && e.Aux == 2 }},
		{telemetry.KindTableProgram, func(e telemetry.Event) bool { return e.A == vip }},
		{telemetry.KindBGPAnnounce, func(e telemetry.Event) bool { return e.A == vip }},
	}
	pos := -1
	lastT := -1.0
	for _, want := range order {
		found := -1
		for i := pos + 1; i < len(evs); i++ {
			if evs[i].Kind == want.kind && want.match(evs[i]) {
				found = i
				break
			}
		}
		if found < 0 {
			var have []string
			for _, e := range evs {
				have = append(have, e.Kind.String())
			}
			t.Fatalf("no %v after index %d in trace %v", want.kind, pos, have)
		}
		if evs[found].Time < lastT {
			t.Fatalf("%v at t=%v precedes previous event at t=%v", want.kind, evs[found].Time, lastT)
		}
		pos, lastT = found, evs[found].Time
	}
	// Every event carries virtual time — the cluster's, the route table's and
	// the controller's as much as the testbed's own: the scenario ends at
	// t=1.0, and the chain's times were checked non-decreasing from the
	// failure at t=0.2 on, so none of it is stamped by another clock.
	for _, e := range evs {
		if e.Time < 0 || e.Time > 1.0 {
			t.Fatalf("%v stamped t=%v, outside the scenario's virtual time [0, 1]", e.Kind, e.Time)
		}
		switch e.Kind {
		case telemetry.KindSwitchFail:
			if e.Time != 0.2 {
				t.Fatalf("switch-fail at t=%v, want the scheduled 0.2", e.Time)
			}
		case telemetry.KindControllerReact:
			// As FailSwitch schedules it; from a variable, because the
			// compiler would fold constants exactly where the testbed rounds.
			failAt := 0.2
			if want := failAt + LatFailDetect + LatBGP; e.Time != want {
				t.Fatalf("controller-react at t=%v, want %v", e.Time, want)
			}
		}
	}

	// The trace is deterministic: same seed and scenario, identical events.
	again := failoverTrace(5)
	if !reflect.DeepEqual(evs, again) {
		t.Fatal("two identically seeded runs produced different traces")
	}
}

// counter reads one counter of the testbed cluster's registry.
func counter(tb *Testbed, name string) uint64 {
	reg, _ := tb.Cluster.Telemetry()
	return reg.Counter(name).Value()
}

// probe is a ping's tuple toward vip.
func probe(i uint32, vip packet.Addr) packet.FiveTuple {
	tuple := probeTuple(i)
	tuple.Dst = vip
	return tuple
}

// TestPingCrossesTheDataplane pins what a probe is: one real packet through
// Cluster.Deliver, so what Ping reports is what the cluster's muxes did with
// it — in hardware, across the FIB-miss window of a migration, and into the
// blackhole of a failure.
func TestPingCrossesTheDataplane(t *testing.T) {
	tb := New(12)
	v := &service.VIP{Addr: vipN(0), Backends: backendsFor(0)}
	sw := tb.Cluster.Topo.AggID(0, 0)
	if err := tb.AssignVIPToHMux(v, sw); err != nil {
		t.Fatal(err)
	}

	// Served in hardware: one packet through one HMux.
	tier, pkts := counter(tb, "core.deliver.tier.hmux"), counter(tb, "hmux.packets")
	if r := tb.Ping(probe(1, v.Addr)); r.Lost || r.ViaSMux {
		t.Fatalf("HMux-served ping: %+v", r)
	}
	if got := counter(tb, "core.deliver.tier.hmux") - tier; got != 1 {
		t.Fatalf("core.deliver.tier.hmux advanced by %d, want 1", got)
	}
	if got := counter(tb, "hmux.packets") - pkts; got != 1 {
		t.Fatalf("hmux.packets advanced by %d, want 1", got)
	}

	// Inside MigrateToSMux's BGP window the route still leads to the switch
	// and its FIB no longer holds the VIP: the real fall-through to an SMux.
	mt := tb.MigrateToSMux(v.Addr, sw, 1.0)
	tb.RunUntil(1.0 + mt.DIPsDelay + mt.VIPDelay + mt.BGPDelay/2)
	// The FIB miss is read off the ping's delivery: it is a fall-through, so
	// no drop counter records it.
	if d, err := tb.Cluster.Deliver(packet.BuildUDP(probe(2, v.Addr), nil)); err != nil || !d.FIBMiss() {
		t.Fatalf("delivery in the FIB-miss window: FIBMiss %v, %v; want a FIB miss", d.FIBMiss(), err)
	}
	smux := counter(tb, "core.deliver.tier.smux")
	if r := tb.Ping(probe(2, v.Addr)); r.Lost || !r.ViaSMux {
		t.Fatalf("ping in the FIB-miss window: %+v", r)
	}
	if got := counter(tb, "core.deliver.tier.smux") - smux; got != 1 {
		t.Fatalf("core.deliver.tier.smux advanced by %d, want 1", got)
	}
	// Once the withdrawal has converged the switch is not on the path at all.
	tb.RunUntil(1.0 + mt.Total())
	if d, err := tb.Cluster.Deliver(packet.BuildUDP(probe(3, v.Addr), nil)); err != nil || d.FIBMiss() {
		t.Fatalf("a converged SMux-served delivery: FIBMiss %v, %v; want no switch on the path", d.FIBMiss(), err)
	}
	if r := tb.Ping(probe(3, v.Addr)); r.Lost || !r.ViaSMux {
		t.Fatalf("ping after the withdrawal: %+v", r)
	}

	// Inside the failure window the dead switch still attracts the /32.
	if err := tb.Cluster.Place(core.Target{Addr: v.Addr, Switches: []topology.SwitchID{sw}}); err != nil {
		t.Fatal(err)
	}
	tb.FailSwitch(sw, 3.0)
	tb.RunUntil(3.0 + LatFailDetect)
	if _, err := tb.Cluster.Deliver(packet.BuildUDP(probe(4, v.Addr), nil)); !errors.Is(err, core.ErrSwitchDown) {
		t.Fatalf("Deliver in the failure window: %v, want ErrSwitchDown", err)
	}
	errs := counter(tb, "core.deliver.errors")
	if r := tb.Ping(probe(4, v.Addr)); !r.Lost {
		t.Fatalf("ping in the failure window: %+v, want lost", r)
	}
	if got := counter(tb, "core.deliver.errors") - errs; got != 1 {
		t.Fatalf("core.deliver.errors advanced by %d, want 1: the lost ping is a failed Deliver", got)
	}
	tb.RunUntil(3.1)
	if r := tb.Ping(probe(5, v.Addr)); r.Lost || !r.ViaSMux {
		t.Fatalf("ping after convergence: %+v", r)
	}
}

// TestFailureHalvesAreCoreCalls checks the two drivers of Figure 12's outage
// — Flood.InjectBlackhole/Heal and Testbed.FailSwitch — against the two core
// calls they are: StopSwitch opens the window, FailSwitch (through the
// controller, on the testbed) closes it.
func TestFailureHalvesAreCoreCalls(t *testing.T) {
	type state struct {
		up, homed bool
		err       error // Deliver's, for a packet to the VIP
		reacted   uint64
	}
	observe := func(c *core.Cluster, vip packet.Addr, sw topology.SwitchID) state {
		_, homed := c.HomeOf(vip)
		_, err := c.Deliver(packet.BuildUDP(probe(9, vip), nil))
		reg, _ := c.Telemetry()
		return state{c.SwitchUp(sw), homed, err, reg.Counter("controller.switch_failures_handled").Value()}
	}
	v := &service.VIP{Addr: vipN(0), Backends: backendsFor(0)}

	// The reference: the core calls themselves.
	ref := New(13)
	sw := ref.Cluster.Topo.AggID(1, 0)
	if err := ref.AssignVIPToHMux(v, sw); err != nil {
		t.Fatal(err)
	}
	ref.Cluster.StopSwitch(sw)
	stopped := observe(ref.Cluster, v.Addr, sw)
	ref.Cluster.FailSwitch(sw)
	failed := observe(ref.Cluster, v.Addr, sw)
	if stopped.up || !stopped.homed || !errors.Is(stopped.err, core.ErrSwitchDown) {
		t.Fatalf("after StopSwitch: %+v, want a down switch still homing the VIP and ErrSwitchDown", stopped)
	}
	if failed.up || failed.homed || failed.err != nil {
		t.Fatalf("after FailSwitch: %+v, want the VIP delivered with no home", failed)
	}

	// The testbed schedules them LatFailDetect+LatBGP apart, the second
	// through the controller's §5.1 reaction.
	tb := New(13)
	if err := tb.AssignVIPToHMux(v, sw); err != nil {
		t.Fatal(err)
	}
	failAt := 0.2
	tb.FailSwitch(sw, failAt)
	tb.RunUntil(failAt)
	if got := observe(tb.Cluster, v.Addr, sw); got != stopped {
		t.Fatalf("testbed at the failure: %+v, want StopSwitch's %+v", got, stopped)
	}
	tb.RunUntil(failAt + LatFailDetect + LatBGP) // a variable: constants would fold exactly
	reacted := failed
	reacted.reacted = 1
	if got := observe(tb.Cluster, v.Addr, sw); got != reacted {
		t.Fatalf("testbed after convergence: %+v, want FailSwitch's %+v and one controller reaction", got, reacted)
	}

	// The flood harness calls them directly.
	f, err := NewFlood(FloodConfig{})
	if err != nil {
		t.Fatal(err)
	}
	home, _ := f.Cluster.HomeOf(f.VIPs[0])
	if err := f.InjectBlackhole(f.VIPs[0]); err != nil {
		t.Fatal(err)
	}
	if got := observe(f.Cluster, f.VIPs[0], home); got != stopped {
		t.Fatalf("flood after InjectBlackhole: %+v, want StopSwitch's %+v", got, stopped)
	}
	f.Heal(f.VIPs[0])
	if got := observe(f.Cluster, f.VIPs[0], home); got != failed {
		t.Fatalf("flood after Heal: %+v, want FailSwitch's %+v", got, failed)
	}
	f.Heal(f.VIPs[1]) // a healthy VIP: nothing stale, and its switch stays up
	if h, ok := f.Cluster.HomeOf(f.VIPs[1]); !ok || !f.Cluster.SwitchUp(h) {
		t.Fatal("Heal of a healthy VIP took its switch down")
	}
}
