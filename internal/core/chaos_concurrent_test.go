package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"duet/internal/hostagent"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/topology"
)

// TestChaosConcurrent is the tentpole race test for the snapshot-published
// read path: it floods the cluster with deliveries from many goroutines
// while control-plane goroutines concurrently migrate VIPs between the SMux
// fleet and HMuxes (single-homed and replicated) and fail/recover switches.
//
// The invariant under churn: every Deliver either lands on a DIP that
// belongs to the packet's VIP, or returns one of the defined control-plane
// errors a converging fabric can produce (ErrSwitchDown during the
// blackhole window of an unconverged withdrawal, ErrNoRoute, ErrNoHostAgent
// while a rebooted switch's TIP partition awaits reinstallation). A torn
// read — a foreign DIP, a nil-map panic, an undefined error — fails the
// test, and `go test -race` verifies the memory model underneath it.
func TestChaosConcurrent(t *testing.T) {
	c, err := New(Config{
		Topology: topology.Config{
			Containers:       2,
			ToRsPerContainer: 4,
			AggsPerContainer: 3,
			Cores:            6,
			ServersPerToR:    8,
		},
		NumSMuxes: 3,
		Aggregate: packet.MustParsePrefix("10.0.0.0/8"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fixed VIP population: the flood asserts DIP membership, so the VIP set
	// and backend sets stay stable while placement churns underneath.
	const numVIPs = 10
	type vipUniverse struct {
		addr packet.Addr
		dips map[packet.Addr]bool
	}
	vips := make([]*vipUniverse, 0, numVIPs)
	nextDIP := 1
	for i := 0; i < numVIPs; i++ {
		addr := packet.AddrFrom4(10, 0, 1, byte(i+1))
		u := &vipUniverse{addr: addr, dips: map[packet.Addr]bool{}}
		var bs []service.Backend
		for j := 0; j < 3; j++ {
			d := packet.AddrFrom4(100, byte(nextDIP>>8), byte(nextDIP), 1)
			nextDIP++
			u.dips[d] = true
			bs = append(bs, service.Backend{Addr: d, Weight: 1})
		}
		if err := c.AddVIP(&service.VIP{Addr: addr, Backends: bs}); err != nil {
			t.Fatal(err)
		}
		vips = append(vips, u)
	}

	// One VIP routed through TIP indirection (§5.2 Figure 7), so the flood
	// also exercises the two-switch hop under churn. Its universe is the
	// union of the partitions' DIPs.
	tip1 := packet.MustParseAddr("20.0.0.1")
	tip2 := packet.MustParseAddr("20.0.0.2")
	part1 := []service.Backend{{Addr: packet.MustParseAddr("100.200.0.1"), Weight: 1}}
	part2 := []service.Backend{{Addr: packet.MustParseAddr("100.200.0.2"), Weight: 1}}
	tipVIP := &service.VIP{Addr: packet.AddrFrom4(10, 0, 2, 1), Backends: []service.Backend{
		{Addr: tip1, Weight: 1}, {Addr: tip2, Weight: 1},
	}}
	if err := c.AddVIP(tipVIP); err != nil {
		t.Fatal(err)
	}
	if err := placeOn(c, tipVIP.Addr, c.Topo.CoreID(0)); err != nil {
		t.Fatal(err)
	}
	tipSw1, tipSw2 := c.Topo.AggID(0, 0), c.Topo.AggID(1, 0)
	if err := c.InstallTIP(tip1, tipSw1, part1); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallTIP(tip2, tipSw2, part2); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTIPBackends(tipVIP.Addr, part1); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTIPBackends(tipVIP.Addr, part2); err != nil {
		t.Fatal(err)
	}
	tipUniverse := map[packet.Addr]bool{part1[0].Addr: true, part2[0].Addr: true}
	// AddVIP created pseudo host agents at the TIP addresses (it cannot tell
	// a TIP backend from a DIP). Detach their registrations so a packet that
	// reaches a TIP while its partition awaits reinstallation surfaces as
	// the defined ErrNotForThisHost instead of a phantom delivery.
	for _, tip := range []packet.Addr{tip1, tip2} {
		a, ok := c.Agent(tip)
		if !ok {
			t.Fatalf("no pseudo-agent at TIP %s", tip)
		}
		if err := a.UnregisterDIP(tip); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Mutator 1: placement churn. Rejections (a racing switch failure, a
	// placement already present, a replicated VIP) are expected outcomes of
	// our own interleavings and are ignored; the flood goroutines are the
	// ones asserting correctness.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; !stop.Load(); i++ {
			u := vips[rng.Intn(len(vips))]
			switch rng.Intn(4) {
			case 0:
				sw := topology.SwitchID(rng.Intn(c.Topo.NumSwitches()))
				_ = placeOn(c, u.addr, sw) // may fail: the switch is down
			case 2:
				a := topology.SwitchID(rng.Intn(c.Topo.NumSwitches()))
				b := topology.SwitchID(rng.Intn(c.Topo.NumSwitches()))
				if a != b {
					_ = placeOn(c, u.addr, a, b)
				}
			default:
				_ = placeOn(c, u.addr)
			}
		}
	}()

	// Mutator 2: switch failure/recovery churn over Agg and Core switches
	// (never ToRs — they front the servers, and the paper's failure model
	// never isolates a rack either). This goroutine is the only one failing
	// switches, so its local `failed` map is authoritative.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		failed := map[topology.SwitchID]bool{}
		candidates := []topology.SwitchID{tipSw1, tipSw2, c.Topo.CoreID(0), c.Topo.CoreID(1), c.Topo.AggID(0, 1), c.Topo.AggID(1, 1)}
		for !stop.Load() {
			sw := candidates[rng.Intn(len(candidates))]
			if failed[sw] {
				c.RecoverSwitch(sw)
				delete(failed, sw)
				// Reinstall a recovered TIP partition, as the controller
				// would: the reboot wiped the switch's tables.
				if sw == tipSw1 {
					_ = c.InstallTIP(tip1, tipSw1, part1)
				}
				if sw == tipSw2 {
					_ = c.InstallTIP(tip2, tipSw2, part2)
				}
			} else if len(failed) < 2 && !wouldPartition(c.Topo, failed, sw) {
				c.FailSwitch(sw)
				failed[sw] = true
			}
		}
		for sw := range failed {
			c.RecoverSwitch(sw)
		}
	}()

	// The flood: 8 goroutines × 2000 packets, mixing the stable VIPs and
	// the TIP-indirected one.
	const (
		floodWorkers   = 8
		packetsPerGoro = 2000
	)
	var delivered, rejected atomic.Int64
	var floodWg sync.WaitGroup
	errCh := make(chan error, floodWorkers)
	for w := 0; w < floodWorkers; w++ {
		floodWg.Add(1)
		go func(w int) {
			defer floodWg.Done()
			for i := 0; i < packetsPerGoro; i++ {
				var dst packet.Addr
				var universe map[packet.Addr]bool
				if i%7 == 0 {
					dst, universe = tipVIP.Addr, tipUniverse
				} else {
					u := vips[(w+i)%len(vips)]
					dst, universe = u.addr, u.dips
				}
				seq := uint32(w*packetsPerGoro + i)
				pkt := packet.BuildTCP(packet.FiveTuple{
					Src: packet.AddrFrom4(30, byte(w), byte(seq>>8), byte(seq)), Dst: dst,
					SrcPort: uint16(1024 + seq%40000), DstPort: 80, Proto: packet.ProtoTCP,
				}, packet.TCPSyn, nil)
				d, err := c.Deliver(pkt)
				if err != nil {
					if errors.Is(err, ErrSwitchDown) || errors.Is(err, ErrNoRoute) ||
						errors.Is(err, ErrNoHostAgent) || errors.Is(err, hostagent.ErrNotForThisHost) {
						rejected.Add(1)
						continue
					}
					errCh <- err
					return
				}
				if !universe[d.DIP] {
					errCh <- errors.New("VIP " + dst.String() + " delivered to foreign DIP " + d.DIP.String())
					return
				}
				delivered.Add(1)
			}
		}(w)
	}

	floodWg.Wait()
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if delivered.Load() == 0 {
		t.Fatal("no packet delivered; vacuous")
	}
	// The defined-error windows must stay windows, not the steady state.
	if r, d := rejected.Load(), delivered.Load(); r > d {
		t.Fatalf("more rejections (%d) than deliveries (%d); churn swamped the datapath", r, d)
	}
	t.Logf("delivered=%d rejected=%d epoch=%d", delivered.Load(), rejected.Load(), c.snap.Load().epoch)
}
