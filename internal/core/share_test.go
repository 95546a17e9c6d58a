package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/topology"
)

// TestMoveAfterInPlaceRemovalKeepsFlows: a DIP removed in place moves only
// its own flows (§5.1), and a later move to a switch moves none of the rest
// (§3.3.1): the switch installs the slots the SMux tier holds, not a table
// built afresh from the shortened config. Both the SMux-hosted case (the
// removal on the SMuxes, then a move onto a switch) and the HMux-hosted one
// (the removal on the switch and the SMuxes, then a move to another switch
// through the stepping stone) run in a stateful and a stateless VIP.
func TestMoveAfterInPlaceRemovalKeepsFlows(t *testing.T) {
	const flows = 2000
	for _, mode := range []steer.Mode{steer.ModeStateful, steer.ModeStateless} {
		for _, hosted := range []string{"smux", "hmux"} {
			t.Run(fmt.Sprintf("%s/%s", mode, hosted), func(t *testing.T) {
				c := testCluster(t)
				v := &service.VIP{Addr: packet.AddrFrom4(10, 0, 0, 1)}
				for d := byte(1); d <= 8; d++ {
					v.Backends = append(v.Backends, service.Backend{Addr: packet.AddrFrom4(100, 0, 0, d), Weight: 1})
				}
				must(t, c.Place(Target{Addr: v.Addr, VIP: v, Stay: true, Mode: &mode}))
				from, to := []topology.SwitchID(nil), c.Topo.CoreID(0)
				if hosted == "hmux" {
					from, to = []topology.SwitchID{c.Topo.CoreID(0)}, c.Topo.CoreID(1)
					must(t, placeOn(c, v.Addr, from...))
				}
				dips := make([]packet.Addr, flows)
				for i := range dips {
					d, err := c.Deliver(clientPkt(v.Addr, uint32(i)))
					must(t, err)
					dips[i] = d.DIP
				}
				victim := v.Backends[3].Addr
				must(t, removeBackend(c, v.Addr, victim))
				if got := c.Replicas(v.Addr); len(got) != len(from) {
					t.Fatalf("the removal moved the VIP: replicas %v, want %v", got, from)
				}
				must(t, placeOn(c, v.Addr, to))

				moved, survivors := 0, 0
				for i, was := range dips {
					d, err := c.Deliver(clientPkt(v.Addr, uint32(i)))
					must(t, err)
					if sw, ok := d.HMux(); !ok || sw != to {
						t.Fatalf("flow %d served by switch %v (%v), want switch %v", i, sw, ok, to)
					}
					if was == victim {
						continue
					}
					survivors++
					if d.DIP != was {
						moved++
					}
				}
				if moved > 0 {
					t.Fatalf("%d of %d flows on surviving DIPs changed DIP on the move", moved, survivors)
				}
			})
		}
	}
}

// TestEditReachesTheNICs: a config change beyond dropped DIPs to a VIP the
// NIC tier keeps is a set there too, charged against the bounded table — a
// grow that fits takes its new cost on every NIC, one that does not leaves
// the NICs for the SMux tier, which holds the grown config.
func TestEditReachesTheNICs(t *testing.T) {
	c := testClusterNMux(t, 8)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2")
	must(t, c.AddVIP(v))
	must(t, c.AssignToNMux(v.Addr))
	wildcard := func(want int) {
		t.Helper()
		for i, m := range c.NMuxes {
			if got := m.Stats().Wildcard; got != want {
				t.Fatalf("NIC %d: %d wildcard entries, want %d", i, got, want)
			}
		}
	}
	wildcard(nmux.Cost(v))

	grow := func(n int) (*service.VIP, error) {
		cfg, _ := c.VIP(v.Addr)
		next := *cfg
		next.Backends = slices.Clone(cfg.Backends)
		for d := len(next.Backends); d < n; d++ {
			next.Backends = append(next.Backends, service.Backend{Addr: packet.AddrFrom4(100, 0, 0, byte(d+1)), Weight: 1})
		}
		return &next, c.Place(Target{Addr: v.Addr, VIP: &next, NIC: true})
	}
	three, err := grow(3)
	must(t, err)
	if !c.NMuxHosted(v.Addr) {
		t.Fatal("a grow that fits left the NIC tier")
	}
	wildcard(nmux.Cost(three))

	if _, err := grow(8); !errors.Is(err, nmux.ErrTableFull) {
		t.Fatalf("a grow past the NIC table: err %v, want %v", err, nmux.ErrTableFull)
	}
	if c.NMuxHosted(v.Addr) {
		t.Fatal("a grow past the NIC table left the VIP on the NIC tier")
	}
	wildcard(0)
	if cfg, _ := c.VIP(v.Addr); len(cfg.Backends) != 8 {
		t.Fatalf("the SMux tier holds %d DIPs, want the grown 8", len(cfg.Backends))
	}
	d, err := c.Deliver(clientPkt(v.Addr, 1))
	must(t, err)
	if k := d.Hops()[0].Kind; k != "smux" {
		t.Fatalf("first hop %s, want smux", k)
	}
}

// TestPlaceRefusesAVIPTwiceInABatch: each target of a batch derives its
// entry from what the tables held before the batch, so a second target for
// the same VIP is refused and the first alone applies.
func TestPlaceRefusesAVIPTwiceInABatch(t *testing.T) {
	c := testCluster(t)
	v := mkVIP(0, "100.0.0.1", "100.0.0.2", "100.0.0.3")
	must(t, c.AddVIP(v))
	must(t, placeOn(c, v.Addr, c.Topo.CoreID(0)))
	without := func(i int) *service.VIP {
		next := *v
		next.Backends = slices.Delete(slices.Clone(v.Backends), i, i+1)
		return &next
	}
	ts := []Target{
		{Addr: v.Addr, VIP: without(0), Stay: true},
		{Addr: v.Addr, VIP: without(1), Stay: true},
	}
	if err := c.Place(ts...); err == nil || ts[0].Err != nil || ts[1].Err == nil {
		t.Fatalf("Place: %v; targets' errors %v, %v; want the second refused", err, ts[0].Err, ts[1].Err)
	}
	want := without(0).Backends
	if cfg, _ := c.VIP(v.Addr); !slices.Equal(cfg.Backends, want) {
		t.Fatalf("VIP holds %v, want %v", cfg.Backends, want)
	}
	removed := v.Backends[0].Addr
	for i := uint32(0); i < 500; i++ {
		d, err := c.Deliver(clientPkt(v.Addr, i))
		must(t, err)
		if d.DIP == removed {
			t.Fatalf("flow %d reached the removed DIP %s", i, removed)
		}
	}
}
