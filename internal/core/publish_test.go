package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/topology"
)

// TestUnobservableMutationsPublishNothing: a VIP move, a mode flip and a VIP
// removal edit the muxes' own tables and the routes, none of which is in the
// cluster snapshot, so the generation Deliver loads stays the very same
// pointer; the mutations a packet can observe still publish one generation
// each, a batch that wires new hosts one for all of them.
func TestUnobservableMutationsPublishNothing(t *testing.T) {
	c, err := New(Config{
		Topology:      topology.TestbedConfig(),
		NumSMuxes:     3,
		Aggregate:     packet.MustParsePrefix("10.0.0.0/8"),
		NMuxTableSize: 64,
	})
	must(t, err)
	v, w := mkVIP(0, "100.0.0.1", "100.0.0.2"), mkVIP(1, "100.0.1.1")
	must(t, c.AddVIP(v))
	must(t, c.AddVIP(w))
	sw, other := c.Topo.TorID(0, 0), c.Topo.AggID(0, 0)

	gen := c.snap.Load()
	if gen.epoch != 2 {
		t.Fatalf("epoch %d after wiring three new hosts in two batches, want 2", gen.epoch)
	}
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"onto a switch, route held", func() error { return c.Place(Target{Addr: v.Addr, Switches: []topology.SwitchID{sw}, Hold: true}) }},
		{"onto a switch", func() error { return placeOn(c, v.Addr, sw) }},
		{"off the switch, route held", func() error { return c.Place(Target{Addr: v.Addr, Hold: true}) }},
		{"to the SMux tier", func() error { return placeOn(c, v.Addr) }},
		{"AssignToNMux", func() error { return c.AssignToNMux(v.Addr) }},
		{"off the NICs", func() error { return placeOn(c, v.Addr) }},
		{"SetVIPMode", func() error { return c.SetVIPMode(v.Addr, steer.ModeHybrid) }},
		{"onto two switches", func() error { return placeOn(c, w.Addr, sw, other) }},
		{"off both switches", func() error { return placeOn(c, w.Addr) }},
		{"RemoveBackend", func() error { return removeBackend(c, v.Addr, v.Backends[1].Addr) }},
		{"AddBackend (known host)", func() error { return addBackend(c, v.Addr, v.Backends[1]) }},
		{"RemoveVIP", func() error { return c.RemoveVIP(w.Addr) }},
		{"AddVIP (known hosts)", func() error { return c.AddVIP(w) }},
	} {
		must(t, step.do())
		if c.snap.Load() != gen {
			t.Errorf("%s published a cluster generation; no packet can observe what it changed", step.name)
			gen = c.snap.Load()
		}
	}

	for _, step := range []struct {
		name string
		do   func()
	}{
		{"StopSwitch", func() { c.StopSwitch(sw) }},
		{"RecoverSwitch", func() { c.RecoverSwitch(sw) }},
		{"AddBackend (new host)", func() {
			must(t, addBackend(c, v.Addr, service.Backend{Addr: packet.MustParseAddr("100.0.0.3"), Weight: 1}))
		}},
	} {
		step.do()
		next := c.snap.Load()
		if next == gen || next.epoch != gen.epoch+1 {
			t.Errorf("%s: epoch %d → %d, want one new generation", step.name, gen.epoch, next.epoch)
		}
		gen = next
	}
}

// TestBatchWiresNewHostsInOneGeneration: a Place batch of 200 VIPs × 4 DIPs,
// every DIP on a host the cluster has not seen, raises core.epoch by exactly
// one for all 800 hosts, and publishes it before any table maps a flow to
// them: an observer that loads an SMux's steer table and then the cluster
// generation, over and over while the batch runs, never finds a DIP the
// table holds without its agent in the index.
func TestBatchWiresNewHostsInOneGeneration(t *testing.T) {
	c := testCluster(t)
	var ts []Target
	var vips []packet.Addr // the observer's: Place writes each target's Err
	for i := 0; i < 200; i++ {
		bs := make([]service.Backend, 4)
		for j := range bs {
			bs[j] = service.Backend{Addr: packet.AddrFrom4(100, byte(i>>8), byte(i), byte(j+1)), Weight: 1}
		}
		v := packet.AddrFrom4(10, 1, byte(i>>8), byte(i))
		ts = append(ts, Target{Addr: v, VIP: &service.VIP{Addr: v, Backends: bs}})
		vips = append(vips, v)
	}
	reg, _ := c.Telemetry()
	epoch := func() int64 {
		c.Collect()
		return reg.Gauge("core.epoch").Value()
	}
	before := epoch()

	stop, done := make(chan struct{}), make(chan int)
	go func() {
		looks, bad := 0, 0
		for {
			select {
			case <-stop:
				done <- looks
				return
			default:
			}
			view := c.SMuxes[0].Steer().View()
			agents := c.snap.Load().agents
			for _, v := range vips {
				e, ok := view.Find(v)
				if !ok {
					continue
				}
				e.Sets(func(dips []packet.Addr) {
					for _, d := range dips {
						if _, ok := agents.Get(d); !ok && bad == 0 {
							bad++
							t.Errorf("SMux 0 maps VIP %s to %s, which has no agent in the published index", v, d)
						}
					}
				})
			}
			looks++
		}
	}()
	must(t, c.Place(ts...))
	close(stop)
	t.Logf("observer looked %d times", <-done)

	if got := epoch() - before; got != 1 {
		t.Errorf("core.epoch rose by %d for one batch of new hosts, want 1", got)
	}
	for _, tg := range ts {
		for _, b := range tg.VIP.Backends {
			if _, ok := c.Agent(b.Addr); !ok {
				t.Fatalf("DIP %s of VIP %s has no agent", b.Addr, tg.Addr)
			}
		}
	}
}

// generations lists every table's generation: the switches', the NICs',
// then the SMuxes'.
func generations(c *Cluster) []uint64 {
	var out []uint64
	for _, hm := range c.HMuxes {
		out = append(out, hm.Stats().Generation)
	}
	for _, nm := range c.NMuxes {
		out = append(out, nm.Stats().Generation)
	}
	for _, sm := range c.SMuxes {
		out = append(out, sm.Epoch())
	}
	return out
}

// TestPlaceMovesAndFlipsModesInOneGeneration: one Place batch that moves
// VIPs onto two switches, onto the NIC tier and back to the SMux tier, with
// half of its targets also setting a mode, moves every switch, NIC and SMux
// table it touches by exactly one generation, and the others by none.
func TestPlaceMovesAndFlipsModesInOneGeneration(t *testing.T) {
	c, err := New(Config{
		Topology:      topology.TestbedConfig(),
		NumSMuxes:     3,
		Aggregate:     packet.MustParsePrefix("10.0.0.0/8"),
		NMuxTableSize: 64,
	})
	must(t, err)
	var vs []*service.VIP
	for i := 0; i < 8; i++ {
		v := mkVIP(i, fmt.Sprintf("100.0.%d.1", i), fmt.Sprintf("100.0.%d.2", i))
		must(t, c.AddVIP(v))
		vs = append(vs, v)
	}
	a, b, gone := c.Topo.AggID(0, 0), c.Topo.AggID(1, 0), c.Topo.TorID(0, 0)
	must(t, placeOn(c, vs[6].Addr, gone))
	must(t, c.AssignToNMux(vs[7].Addr))

	hybrid, stateless := steer.ModeHybrid, steer.ModeStateless
	ts := []Target{
		{Addr: vs[0].Addr, Switches: []topology.SwitchID{a}, Mode: &hybrid},
		{Addr: vs[1].Addr, Switches: []topology.SwitchID{a}},
		{Addr: vs[2].Addr, Switches: []topology.SwitchID{b}, Mode: &stateless},
		{Addr: vs[3].Addr, Switches: []topology.SwitchID{b}},
		{Addr: vs[4].Addr, NIC: true, Mode: &hybrid},
		{Addr: vs[5].Addr, NIC: true},
		{Addr: vs[6].Addr, Mode: &stateless}, // off switch gone, to the SMux tier
		{Addr: vs[7].Addr},                   // off the NICs, to the SMux tier
	}
	before := generations(c)
	must(t, c.Place(ts...))
	moved := map[int]bool{int(a): true, int(b): true, int(gone): true} // the switches
	for i, g := range generations(c) {
		want := before[i]
		if i >= len(c.HMuxes) || moved[i] { // every NIC and SMux is touched
			want++
		}
		if g != want {
			t.Errorf("table %d: generation %d → %d, want %d", i, before[i], g, want)
		}
	}
	for _, tg := range ts {
		want := steer.ModeStateful
		if tg.Mode != nil {
			want = *tg.Mode
		}
		if got, _ := c.VIPMode(tg.Addr); got != want {
			t.Errorf("VIP %s reads %s, want %s", tg.Addr, got, want)
		}
	}
	if home, _ := c.HomeOf(vs[0].Addr); home != a || !c.NMuxHosted(vs[4].Addr) || c.NMuxHosted(vs[7].Addr) || len(c.Replicas(vs[6].Addr)) != 0 {
		t.Fatal("the batch did not place its VIPs where its targets put them")
	}
}

// allocated reports the bytes f allocates. TotalAlloc only ever grows and the
// package's tests run one at a time, so the delta is f's own.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// medianAllocated is the median of the bytes f allocates over 5 calls. A VIP
// move inserts its DIPs into the switch's tunnel refcount map and deletes
// them again; the Go map reuses the freed slots until, at a point its random
// hash seed decides, it rehashes into a new table (~600 B, about one run in
// ten). That is the map's amortized growth, not a cost of the move, and the
// larger table takes many more moves to need the next one, so the median of
// 5 moves is the move's own cost.
func medianAllocated(f func()) uint64 {
	var got [5]uint64
	for i := range got {
		got[i] = allocated(f)
	}
	slices.Sort(got[:])
	return got[2]
}

// TestMutationCostFollowsTheMutation is ROADMAP's publication probe, stated in
// bytes so it cannot flake: what a mutation allocates depends on what it
// changes, not on how large the cluster is. On the way to 5,000 VIPs of 10
// DIPs it measures, at 500 and at 50,000 registered host agents, one VIP move
// (HMux assign + withdraw, the median of 5: within 10 % of each other — the
// move touches one switch and no index) and one AddVIP (the 5,000th under 8×
// the 50th: ten new hosts each copy one chunk and the directory of a 100×
// larger index).
func TestMutationCostFollowsTheMutation(t *testing.T) {
	c := testCluster(t)
	sw := c.Topo.TorID(0, 0)
	var add, move []uint64
	for i := 1; i <= 5000; i++ {
		v := &service.VIP{Addr: packet.AddrFrom4(10, 1, byte(i>>8), byte(i))}
		for j := 0; j < 10; j++ {
			d := i*10 + j
			v.Backends = append(v.Backends, service.Backend{Addr: packet.AddrFrom4(100, byte(d>>16), byte(d>>8), byte(d)), Weight: 1})
		}
		if i != 50 && i != 5000 {
			must(t, c.AddVIP(v))
			continue
		}
		add = append(add, allocated(func() { must(t, c.AddVIP(v)) }))
		moveVIP := func() {
			must(t, placeOn(c, v.Addr, sw))
			must(t, placeOn(c, v.Addr))
		}
		moveVIP() // the switch's first VIP also sizes its bookkeeping maps
		move = append(move, medianAllocated(moveVIP))
	}
	if n := c.snap.Load().agents.Len(); n != 50000 {
		t.Fatalf("%d host agents registered, want 50000", n)
	}
	t.Logf("AddVIP: %d B at 50 VIPs, %d B at 5,000; move: %d B at 500 agents, %d B at 50,000", add[0], add[1], move[0], move[1])
	if lo, hi := min(move[0], move[1]), max(move[0], move[1]); hi-lo > lo/10 {
		t.Errorf("a VIP move allocates %d B at 500 agents and %d B at 50,000: more than 10 %% apart", move[0], move[1])
	}
	if add[1] >= 8*add[0] {
		t.Errorf("the 5,000th AddVIP allocates %d B, the 50th %d B: %.1fx, want < 8x", add[1], add[0], float64(add[1])/float64(add[0]))
	}
}

// TestDIPServesASecondVIP: removing a VIP, or one backend of it, releases the
// DIP at its host agent — the agent stops decapsulating for the old VIP and
// the address can go behind another one — while the host itself stays wired.
// A RegisterHost VM set goes with its VIP.
func TestDIPServesASecondVIP(t *testing.T) {
	c := testCluster(t)
	dip1, dip2 := packet.MustParseAddr("100.0.0.1"), packet.MustParseAddr("100.0.0.2")
	agentOf := func(host packet.Addr) func(vip packet.Addr) []packet.Addr {
		a, ok := c.Agent(host)
		if !ok {
			t.Fatalf("host %s lost its agent", host)
		}
		return a.LocalDIPs
	}

	v1, v2 := mkVIP(0, "100.0.0.1", "100.0.0.2"), mkVIP(1, "100.0.0.1")
	must(t, c.AddVIP(v1))
	must(t, c.RemoveVIP(v1.Addr))
	if left := agentOf(dip2)(v1.Addr); len(left) != 0 {
		t.Errorf("host %s still decapsulates %v for the removed VIP", dip2, left)
	}
	if err := c.AddVIP(v2); err != nil {
		t.Fatalf("AddVIP of a second VIP over a released DIP: %v", err)
	}
	d, err := c.Deliver(clientPkt(v2.Addr, 1))
	if err != nil || d.DIP != dip1 || d.VIP != v2.Addr {
		t.Fatalf("delivery through the reused DIP: %+v, %v", d, err)
	}

	v3, v4 := mkVIP(2, "100.0.1.1", "100.0.1.2"), mkVIP(3, "100.0.1.3")
	moved := v3.Backends[1]
	must(t, c.AddVIP(v3))
	must(t, c.AddVIP(v4))
	must(t, removeBackend(c, v3.Addr, moved.Addr))
	if err := addBackend(c, v4.Addr, moved); err != nil {
		t.Fatalf("AddBackend of a DIP another VIP released: %v", err)
	}
	if got := agentOf(moved.Addr)(v4.Addr); !slices.Equal(got, []packet.Addr{moved.Addr}) {
		t.Errorf("host %s serves %v for its new VIP, want itself", moved.Addr, got)
	}

	// A backend listed twice (weighting) keeps its registration until the last
	// listing goes; a virtualized host's VM DIPs go with the VIP.
	hip := packet.MustParseAddr("100.0.2.1")
	vms := []packet.Addr{packet.MustParseAddr("100.0.2.11"), packet.MustParseAddr("100.0.2.12")}
	v5 := mkVIP(4, "100.0.2.1", "100.0.2.1", "100.0.2.2")
	must(t, c.RegisterHost(hip, v5.Addr, vms))
	must(t, c.AddVIP(v5))
	must(t, removeBackend(c, v5.Addr, hip))
	if got := agentOf(hip)(v5.Addr); !slices.Equal(got, vms) {
		t.Errorf("host %s serves %v with one of its two listings removed, want its VMs %v", hip, got, vms)
	}
	must(t, c.RemoveVIP(v5.Addr))
	if left := agentOf(hip)(v5.Addr); len(left) != 0 {
		t.Errorf("host %s still serves VMs %v of the removed VIP", hip, left)
	}
	if err := c.RegisterHost(hip, v1.Addr, vms); err != nil {
		t.Fatalf("the released VM DIPs cannot serve another VIP: %v", err)
	}
}
