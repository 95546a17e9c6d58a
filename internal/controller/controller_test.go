package controller

import (
	"slices"
	"sync"
	"testing"

	"duet/internal/assign"
	"duet/internal/core"
	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/topology"
	"duet/internal/workload"
)

func world(t testing.TB, numVIPs int, rate float64, seed int64) (*core.Cluster, *workload.Workload, *Controller) {
	t.Helper()
	return worldTables(t, numVIPs, rate, seed, hmux.Config{})
}

// worldTables is world with the switches' table sizes set.
func worldTables(t testing.TB, numVIPs int, rate float64, seed int64, tables hmux.Config) (*core.Cluster, *workload.Workload, *Controller) {
	t.Helper()
	topoCfg := topology.Config{
		Containers:       2,
		ToRsPerContainer: 4,
		AggsPerContainer: 2,
		Cores:            4,
		ServersPerToR:    10,
	}
	c, err := core.New(core.Config{
		Topology:   topoCfg,
		NumSMuxes:  3,
		Aggregate:  packet.MustParsePrefix("10.0.0.0/8"),
		HMuxTables: tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{
		NumVIPs: numVIPs, TotalRate: rate, Epochs: 4, Seed: seed,
		TrafficSkew: 1.6, MaxDIPs: 60, InternetFrac: 0.3, ChurnStdDev: 0.3,
	}, c.Topo)
	if err != nil {
		t.Fatal(err)
	}
	ct := New(c, assign.DefaultOptions())
	if err := ct.SyncVIPs(w, 8, nil); err != nil {
		t.Fatal(err)
	}
	return c, w, ct
}

func clientPkt(vip packet.Addr, i uint32) []byte {
	return packet.BuildTCP(packet.FiveTuple{
		Src: packet.AddrFrom4(30, 0, byte(i>>8), byte(i)), Dst: vip,
		SrcPort: uint16(1024 + i), DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)
}

func TestRunEpochPlacesVIPs(t *testing.T) {
	c, w, ct := world(t, 60, 5e10, 1)
	rep, err := ct.RunEpoch(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumAssigned == 0 {
		t.Fatal("no VIPs assigned")
	}
	if rep.AssignedFraction < 0.8 {
		t.Fatalf("fraction = %.3f", rep.AssignedFraction)
	}
	// Cluster state must agree with the engine's output.
	onHMux := 0
	for _, addr := range c.VIPs() {
		if _, ok := c.HomeOf(addr); ok {
			onHMux++
		}
	}
	if onHMux == 0 {
		t.Fatal("engine said assigned but cluster has nothing on HMuxes")
	}
	// Every VIP still deliverable.
	for i := range w.VIPs {
		if _, err := c.Deliver(clientPkt(w.VIPs[i].Addr, uint32(i))); err != nil {
			t.Fatalf("VIP %s undeliverable after epoch: %v", w.VIPs[i].Addr, err)
		}
	}
}

func TestSecondEpochSticky(t *testing.T) {
	_, w, ct := world(t, 60, 5e10, 2)
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := ct.RunEpoch(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sticky: the vast majority of VIPs stay put between epochs.
	if rep.Moved > len(w.VIPs)/2 {
		t.Fatalf("%d of %d VIPs moved — sticky not sticking", rep.Moved, len(w.VIPs))
	}
	if ct.Previous() == nil {
		t.Fatal("previous assignment not recorded")
	}
}

func TestConnectionsSurviveEpochMigration(t *testing.T) {
	c, w, ct := world(t, 40, 5e10, 3)
	// Establish flows while everything is on the SMuxes.
	before := make(map[uint32]packet.Addr)
	vip := w.VIPs[0].Addr
	for i := uint32(0); i < 200; i++ {
		d, err := c.Deliver(clientPkt(vip, i))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = d.DIP
	}
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	// After the epoch (VIP likely moved to an HMux), flows keep their DIPs.
	for i := uint32(0); i < 200; i++ {
		d, err := c.Deliver(clientPkt(vip, i))
		if err != nil {
			t.Fatal(err)
		}
		if d.DIP != before[i] {
			t.Fatalf("flow %d remapped across controller migration", i)
		}
	}
}

func TestAddDIPBouncesThroughSMux(t *testing.T) {
	c, w, ct := world(t, 40, 5e10, 4)
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	// Find a VIP on an HMux.
	var vip packet.Addr
	for _, a := range c.VIPs() {
		if _, ok := c.HomeOf(a); ok {
			vip = a
			break
		}
	}
	if vip.IsZero() {
		t.Skip("no HMux-assigned VIP in this seed")
	}
	newDIP := packet.MustParseAddr("100.99.0.1")
	if err := ct.AddDIP(vip, service.Backend{Addr: newDIP, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	// §5.2: the VIP must be off the HMux now (SMux masks the hash change).
	if _, ok := c.HomeOf(vip); ok {
		t.Fatal("VIP still on HMux right after DIP addition")
	}
	v, _ := c.VIP(vip)
	found := false
	for _, b := range v.Backends {
		if b.Addr == newDIP {
			found = true
		}
	}
	if !found {
		t.Fatal("backend not recorded")
	}
	// Deliverable, and eventually some flow reaches the new DIP.
	hit := false
	for i := uint32(5000); i < 9000 && !hit; i++ {
		d, err := c.Deliver(clientPkt(vip, i))
		if err != nil {
			t.Fatal(err)
		}
		hit = d.DIP == newDIP
	}
	if !hit {
		t.Fatal("new DIP never selected")
	}
	// Next epoch migrates the VIP back to an HMux.
	if _, err := ct.RunEpoch(w, 1); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveDIPLeavesCallersVIPAlone: the cluster edits its own record of a
// VIP in place, so AddVIP must not share the caller's backend arrays — a
// removal used to shift the caller's slice to {B,C,C}.
// TestOrphanReplacedByDeltaEngine: a VIP taken off its switch between epochs
// — by AddDIP, then by a refused Place — is re-placed by the next epoch on
// the incremental engine, as on the sticky one, though its rate and DIP
// racks did not change.
func TestOrphanReplacedByDeltaEngine(t *testing.T) {
	const hostTable = 8
	c, w, ct := worldTables(t, 40, 5e10, 4, hmux.Config{HostTableSize: hostTable})
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	for e := 1; e < w.NumEpochs(); e++ {
		copy(w.Rates[e], w.Rates[0])
	}
	vi := slices.Index(ct.Previous().TierOf, assign.TierHMux)
	if vi < 0 {
		t.Fatal("epoch 0 put no VIP on an HMux")
	}
	vip := w.VIPs[vi].Addr
	onHMux := func() bool { _, ok := c.HomeOf(vip); return ok }

	// AddDIP takes the VIP off its switch; the sticky engine would put it back.
	if err := ct.AddDIP(vip, service.Backend{Addr: packet.MustParseAddr("100.99.0.1"), Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if onHMux() {
		t.Fatal("VIP still on its HMux after AddDIP")
	}
	if sticky, err := assign.ComputeSticky(c.Net, w, 1, ct.Previous(), ct.Opts); err != nil || sticky.TierOf[vi] != assign.TierHMux {
		t.Fatalf("the sticky engine leaves the orphan on tier %v (%v)", sticky.TierOf[vi], err)
	}
	rep, err := ct.RunEpochDelta(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved != 1 || !onHMux() {
		t.Fatalf("epoch 1 moved %d VIPs; the orphan is back on an HMux: %v", rep.Moved, onHMux())
	}

	// Fill every switch's host table, so the next return is refused.
	if err := ct.AddDIP(vip, service.Backend{Addr: packet.MustParseAddr("100.99.0.2"), Weight: 1}); err != nil {
		t.Fatal(err)
	}
	var fillers []core.Target
	for sw, m := range c.HMuxes {
		for i := m.Stats().HostUsed; i < hostTable; i++ {
			addr := packet.AddrFrom4(10, 200, byte(sw), byte(i))
			fillers = append(fillers, core.Target{Addr: addr, Switches: []topology.SwitchID{topology.SwitchID(sw)},
				VIP: &service.VIP{Addr: addr, Backends: []service.Backend{{Addr: packet.AddrFrom4(100, 200, byte(sw), byte(i)), Weight: 1}}}})
		}
	}
	c.Place(fillers...)
	for _, f := range fillers {
		if f.Err != nil {
			t.Fatalf("filler %s: %v", f.Addr, f.Err)
		}
	}
	if rep, err = ct.RunEpochDelta(w, 2); err != nil {
		t.Fatal(err)
	}
	if rep.Refused != 1 || onHMux() {
		t.Fatalf("epoch 2 refused %d placements, want the orphan's 1; the VIP is on an HMux: %v", rep.Refused, onHMux())
	}
	for i := range fillers {
		fillers[i] = core.Target{Addr: fillers[i].Addr, Remove: true}
	}
	c.Place(fillers...)
	if rep, err = ct.RunEpochDelta(w, 3); err != nil {
		t.Fatal(err)
	}
	if rep.Moved != 1 || rep.Refused != 0 || !onHMux() {
		t.Fatalf("epoch 3 moved %d and refused %d VIPs; the refused VIP is back on an HMux: %v", rep.Moved, rep.Refused, onHMux())
	}
}

func TestRemoveDIPLeavesCallersVIPAlone(t *testing.T) {
	c, _, ct := world(t, 4, 5e10, 7)
	dip := func(i byte) service.Backend {
		return service.Backend{Addr: packet.AddrFrom4(100, 9, 0, i), Weight: 1}
	}
	v := &service.VIP{
		Addr:     packet.MustParseAddr("10.9.9.9"),
		Backends: []service.Backend{dip(1), dip(2), dip(3)},
		Ports:    []service.PortRule{{Port: 443, Backends: []service.Backend{dip(1), dip(2)}}},
	}
	if err := c.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := ct.RemoveDIP(v.Addr, dip(1).Addr); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v.Backends, []service.Backend{dip(1), dip(2), dip(3)}) {
		t.Fatalf("caller's Backends rewritten to %v", v.Backends)
	}
	stored, _ := c.VIP(v.Addr)
	if !slices.Equal(stored.Backends, []service.Backend{dip(2), dip(3)}) {
		t.Fatalf("cluster's Backends = %v, want the two survivors", stored.Backends)
	}
	if &stored.Ports[0].Backends[0] == &v.Ports[0].Backends[0] {
		t.Fatal("port rule backends still shared with the caller")
	}
}

func TestRemoveDIPInPlace(t *testing.T) {
	c, w, ct := world(t, 40, 5e10, 5)
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	var vip packet.Addr
	for _, a := range c.VIPs() {
		v, _ := c.VIP(a)
		if _, ok := c.HomeOf(a); ok && len(v.Backends) >= 2 {
			vip = a
			break
		}
	}
	if vip.IsZero() {
		t.Skip("no suitable VIP")
	}
	v, _ := c.VIP(vip)
	victim := v.Backends[0].Addr
	nBefore := len(v.Backends)
	if err := ct.RemoveDIP(vip, victim); err != nil {
		t.Fatal(err)
	}
	if len(v.Backends) != nBefore {
		t.Fatal("the record handed out before the removal was edited in place")
	}
	if v, _ = c.VIP(vip); len(v.Backends) != nBefore-1 {
		t.Fatal("backend list not shrunk")
	}
	// VIP stays on its HMux (in-place resilient removal).
	if _, ok := c.HomeOf(vip); !ok {
		t.Fatal("VIP fell off HMux on DIP removal")
	}
	for i := uint32(0); i < 300; i++ {
		d, err := c.Deliver(clientPkt(vip, i))
		if err != nil {
			t.Fatal(err)
		}
		if d.DIP == victim {
			t.Fatal("removed DIP still selected")
		}
	}
}

func TestHealthSweep(t *testing.T) {
	c, w, ct := world(t, 30, 4e10, 6)
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	vip := w.VIPs[0].Addr
	v, _ := c.VIP(vip)
	if len(v.Backends) < 2 {
		t.Skip("VIP too small")
	}
	sick := v.Backends[0].Addr
	agent, ok := c.Agent(sick)
	if !ok {
		t.Fatal("no agent")
	}
	if err := agent.SetHealth(sick, false); err != nil {
		t.Fatal(err)
	}
	removed, err := ct.HealthSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0][1] != sick {
		t.Fatalf("removed = %v", removed)
	}
	// Sweep is idempotent.
	removed, err = ct.HealthSweep()
	if err != nil || len(removed) != 0 {
		t.Fatalf("second sweep removed %v, err %v", removed, err)
	}
}

func TestHandleSwitchFailureThenReassign(t *testing.T) {
	c, w, ct := world(t, 60, 5e10, 7)
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	// Fail the switch with the most VIPs.
	counts := make(map[topology.SwitchID]int)
	for _, a := range c.VIPs() {
		if sw, ok := c.HomeOf(a); ok {
			counts[sw]++
		}
	}
	var worst topology.SwitchID = -1
	best := 0
	for sw, n := range counts {
		if n > best {
			worst, best = sw, n
		}
	}
	if worst < 0 {
		t.Skip("nothing assigned")
	}
	ct.HandleSwitchFailure(worst)
	// All VIPs still deliverable (SMux backstop).
	for i := range w.VIPs {
		if _, err := c.Deliver(clientPkt(w.VIPs[i].Addr, uint32(i))); err != nil {
			t.Fatalf("VIP %s dead after switch failure: %v", w.VIPs[i].Addr, err)
		}
	}
	// Next epoch re-places the orphaned VIPs on other switches.
	rep, err := ct.RunEpoch(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range c.VIPs() {
		if sw, ok := c.HomeOf(a); ok && sw == worst {
			t.Fatal("VIP re-placed on failed switch")
		}
	}
	if rep.NumAssigned == 0 {
		t.Fatal("no VIPs assigned after failure")
	}
}

func TestAddDIPUnknownVIP(t *testing.T) {
	_, _, ct := world(t, 10, 1e10, 8)
	err := ct.AddDIP(packet.MustParseAddr("9.9.9.9"), service.Backend{Addr: 1, Weight: 1})
	if err != core.ErrVIPUnknown {
		t.Fatalf("got %v", err)
	}
	if err := ct.RemoveDIP(packet.MustParseAddr("9.9.9.9"), 1); err != core.ErrVIPUnknown {
		t.Fatalf("got %v", err)
	}
}

// TestEpochKeepsModes: a VIP's mode is its config — set by SetVIPMode or
// the SMuxes' default — and an epoch that moves it onto a switch or the NIC
// tier leaves the mode as it was.
func TestEpochKeepsModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode steer.Mode // the SMuxes' default
		set  bool       // set every VIP through SetVIPMode, hybrid and stateless in turn
	}{
		{"SetVIPMode", steer.ModeStateful, true},
		{"SMuxMode", steer.ModeHybrid, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, w, ct := nmuxWorldMode(t, 40, 9, tc.mode)
			want := map[packet.Addr]steer.Mode{}
			for i, v := range w.VIPs {
				m := tc.mode
				if tc.set {
					m = []steer.Mode{steer.ModeHybrid, steer.ModeStateless}[i%2]
					if err := c.SetVIPMode(v.Addr, m); err != nil {
						t.Fatal(err)
					}
				}
				want[v.Addr] = m
			}
			moved, hmuxes, nics := 0, 0, 0
			for epoch, run := range []func(*workload.Workload, int) (EpochReport, error){ct.RunEpoch, ct.RunEpochDelta} {
				rep, err := run(w, epoch)
				if err != nil {
					t.Fatal(err)
				}
				moved += rep.Moved
				hmuxes, nics = max(hmuxes, rep.NumAssigned), max(nics, rep.NumNMux)
				for addr, m := range want {
					if got, _ := c.VIPMode(addr); got != m {
						t.Fatalf("epoch %d: VIP %s reads %s, want %s", epoch, addr, got, m)
					}
				}
			}
			if moved == 0 || hmuxes == 0 || nics == 0 {
				t.Fatalf("%d moves, at most %d VIPs on switches and %d on the NICs; want some of each", moved, hmuxes, nics)
			}
		})
	}
}

// TestRunEpochDeltaMatchesFromScratch drives the incremental engine through
// a churn sequence: the cluster stays deliverable and steady-state epochs
// touch only a fraction of the fleet. That each epoch's placement equals a
// from-scratch stable recompute over the same base is the engine's own
// property test (assign.TestComputeDeltaEqualsComputeFrom): the reference
// is not exported.
func TestRunEpochDeltaMatchesFromScratch(t *testing.T) {
	c, w, ct := world(t, 60, 5e10, 7)
	if _, err := ct.RunEpoch(w, 0); err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch < w.NumEpochs(); epoch++ {
		rep, err := ct.RunEpochDelta(w, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Moved > len(w.VIPs)/2 {
			t.Fatalf("epoch %d: %d of %d VIPs moved under the incremental engine", epoch, rep.Moved, len(w.VIPs))
		}
		for i := range w.VIPs {
			if _, err := c.Deliver(clientPkt(w.VIPs[i].Addr, uint32(i))); err != nil {
				t.Fatalf("epoch %d: VIP %s undeliverable: %v", epoch, w.VIPs[i].Addr, err)
			}
		}
	}
}

// TestDIPChurnBesideMigration grows one VIP's backend set a hundred times
// while another goroutine bounces the same VIP on and off a switch. The
// backend-set edit and the mux reprogramming happen in core under the writer
// lock; when the controller edited the cluster's record itself, placing the
// VIP on its switch read the backend array AddDIP was appending to (run
// under -race).
func TestDIPChurnBesideMigration(t *testing.T) {
	c, err := core.New(core.Config{
		Topology:  topology.TestbedConfig(),
		NumSMuxes: 3,
		Aggregate: packet.MustParsePrefix("10.0.0.0/8"),
	})
	if err != nil {
		t.Fatal(err)
	}
	vip := packet.MustParseAddr("10.0.0.1")
	dip := func(i int) service.Backend {
		return service.Backend{Addr: packet.AddrFrom4(100, 0, byte(i>>8), byte(i)), Weight: 1}
	}
	if err := c.AddVIP(&service.VIP{Addr: vip, Backends: []service.Backend{dip(1), dip(2)}}); err != nil {
		t.Fatal(err)
	}
	ct := New(c, assign.DefaultOptions())
	sw := c.Topo.AggID(0, 0)
	const rounds = 100

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := c.Place(core.Target{Addr: vip, Switches: []topology.SwitchID{sw}}); err != nil {
				t.Errorf("assign %d: %v", i, err)
				return
			}
			if err := c.Place(core.Target{Addr: vip}); err != nil {
				t.Errorf("withdraw %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		// The cluster refuses to grow a VIP that is on a switch, so an
		// assignment that lands between AddDIP's withdrawal and its edit sends
		// the controller round again.
		for tries := 0; ; tries++ {
			err := ct.AddDIP(vip, dip(3+i))
			if err == nil {
				break
			}
			if tries == 1000 {
				t.Fatalf("AddDIP %d: %v", i, err)
			}
		}
	}
	wg.Wait()

	v, _ := c.VIP(vip)
	if len(v.Backends) != 2+rounds {
		t.Fatalf("VIP has %d backends after %d additions to 2", len(v.Backends), rounds)
	}
	valid := make(map[packet.Addr]bool, len(v.Backends))
	for _, b := range v.Backends {
		valid[b.Addr] = true
	}
	for i := uint32(0); i < 300; i++ {
		d, err := c.Deliver(clientPkt(vip, i))
		if err != nil {
			t.Fatal(err)
		}
		if !valid[d.DIP] {
			t.Fatalf("flow %d delivered to %s, not a backend", i, d.DIP)
		}
	}
}
