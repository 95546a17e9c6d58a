package hmux_test

// A VIP's entry is one value per cluster: every SMux and every switch that
// holds a VIP resolves it through the entry its Place batch derived once,
// whatever edits and moves came before. An external test package because it
// drives a core.Cluster and reads each switch's entry (EntryOf, test-only).

import (
	"math/rand"
	"slices"
	"testing"

	"duet/internal/core"
	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/topology"
)

func shareCluster(t *testing.T) *core.Cluster {
	t.Helper()
	c, err := core.New(core.Config{
		Topology:      topology.TestbedConfig(),
		NumSMuxes:     4,
		NMuxTableSize: 256,
		Aggregate:     packet.MustParsePrefix("10.0.0.0/8"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// holders returns the entry of each table that holds addr — every SMux,
// then each switch that does — and the switches.
func holders(t *testing.T, c *core.Cluster, addr packet.Addr) ([]*steer.Entry, []topology.SwitchID) {
	t.Helper()
	var entries []*steer.Entry
	for i, sm := range c.SMuxes {
		e, ok := sm.Steer().View().Find(addr)
		if !ok {
			t.Fatalf("SMux %d lacks VIP %s", i, addr)
		}
		entries = append(entries, e)
	}
	var sws []topology.SwitchID
	for s, m := range c.HMuxes {
		if e, ok := hmux.EntryOf(m, addr); ok {
			entries = append(entries, e)
			sws = append(sws, topology.SwitchID(s))
		}
	}
	return entries, sws
}

// TestEveryTableHoldsOneEntry drives random Place batches — VIPs added,
// DIPs removed in place and re-added, moves between switches, replica sets,
// the NICs and the SMux tier, mode flips, VIPs removed — and after each
// checks that every SMux and switch holding a VIP holds one entry,
// pointer-equal (so one slot array), and that the switches holding it are
// its placement.
func TestEveryTableHoldsOneEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	c := shareCluster(t)
	switches := c.Topo.NumSwitches()
	dip := func(v, d int) packet.Addr { return packet.AddrFrom4(100, byte(v), byte(d), 1) }
	var vips []packet.Addr
	added, done := 1, map[string]int{}
	index := map[packet.Addr]int{} // a VIP's DIPs are dip(index, 0..7)
	for step := 0; step < 300; step++ {
		var ts []core.Target
		var kinds []string
		used := map[packet.Addr]bool{}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			if len(vips) == 0 || rng.Intn(6) == 0 {
				addr := packet.AddrFrom4(10, 0, byte(added>>8), byte(added))
				index[addr] = added
				v := &service.VIP{Addr: addr}
				for d := 0; d < 2+rng.Intn(6); d++ {
					v.Backends = append(v.Backends, service.Backend{Addr: dip(added, d), Weight: 1})
				}
				t := core.Target{Addr: addr, VIP: v}
				if rng.Intn(2) == 0 {
					t.Switches = []topology.SwitchID{topology.SwitchID(rng.Intn(switches))}
				}
				ts, kinds = append(ts, t), append(kinds, "add")
				vips = append(vips, addr)
				used[addr] = true
				added++
				continue
			}
			addr := vips[rng.Intn(len(vips))]
			if used[addr] {
				continue
			}
			used[addr] = true
			cfg, _ := c.VIP(addr)
			next := *cfg
			switch op := rng.Intn(7); {
			case op == 0 && len(cfg.Backends) > 1: // a DIP removed in place
				i := rng.Intn(len(cfg.Backends))
				next.Backends = slices.Delete(slices.Clone(cfg.Backends), i, i+1)
				ts, kinds = append(ts, core.Target{Addr: addr, VIP: &next, Stay: true}), append(kinds, "remove-dip")
			case op == 1: // a DIP (re-)added: a set, refused while on a switch
				d := dip(index[addr], rng.Intn(8))
				if slices.ContainsFunc(cfg.Backends, func(b service.Backend) bool { return b.Addr == d }) {
					continue
				}
				next.Backends = append(slices.Clone(cfg.Backends), service.Backend{Addr: d, Weight: 1})
				ts, kinds = append(ts, core.Target{Addr: addr, VIP: &next, Stay: true}), append(kinds, "add-dip")
			case op == 2:
				m := steer.Modes()[rng.Intn(3)]
				ts, kinds = append(ts, core.Target{Addr: addr, Stay: true, Mode: &m}), append(kinds, "mode")
			case op == 3:
				ts, kinds = append(ts, core.Target{Addr: addr, NIC: true}), append(kinds, "nic")
			case op == 4:
				ts, kinds = append(ts, core.Target{Addr: addr}), append(kinds, "smux")
			case op == 5 && rng.Intn(4) == 0:
				ts, kinds = append(ts, core.Target{Addr: addr, Remove: true}), append(kinds, "remove")
				vips = slices.DeleteFunc(vips, func(a packet.Addr) bool { return a == addr })
			default: // one home or two replicas
				sws := []topology.SwitchID{topology.SwitchID(rng.Intn(switches))}
				if s := topology.SwitchID(rng.Intn(switches)); rng.Intn(3) == 0 && s != sws[0] {
					sws = append(sws, s)
				}
				ts, kinds = append(ts, core.Target{Addr: addr, Switches: sws}), append(kinds, "move")
			}
		}
		_ = c.Place(ts...) // refusals are checked below, target by target
		for i, tg := range ts {
			if tg.Err == nil {
				done[kinds[i]]++
			} else if kinds[i] != "add-dip" {
				t.Fatalf("step %d: %s of %s refused: %v", step, kinds[i], tg.Addr, tg.Err)
			}
		}
		for _, addr := range c.VIPs() {
			entries, sws := holders(t, c, addr)
			for _, e := range entries[1:] {
				if e != entries[0] {
					t.Fatalf("step %d: VIP %s: its tables hold %d distinct entries", step, addr, len(slices.Compact(slices.Clone(entries))))
				}
			}
			want := c.Replicas(addr)
			slices.Sort(want)
			if !slices.Equal(sws, want) {
				t.Fatalf("step %d: VIP %s on switches %v, placed on %v", step, addr, sws, want)
			}
		}
	}
	for _, k := range []string{"add", "remove-dip", "add-dip", "mode", "nic", "smux", "remove", "move"} {
		if done[k] == 0 {
			t.Errorf("no %s target applied in the run: vacuous", k)
		}
	}
}

// TestOnePlaceLeavesOneEntryPerVIP: one Place of n VIPs, half of them onto
// a switch, on a cluster of four SMuxes leaves n entries, not one per table.
func TestOnePlaceLeavesOneEntryPerVIP(t *testing.T) {
	const n = 64
	c := shareCluster(t)
	ts := make([]core.Target, n)
	for i := range ts {
		v := &service.VIP{Addr: packet.AddrFrom4(10, 1, 0, byte(i))}
		for d := 0; d < 4; d++ {
			v.Backends = append(v.Backends, service.Backend{Addr: packet.AddrFrom4(100, 1, byte(i), byte(d)), Weight: 1})
		}
		ts[i] = core.Target{Addr: v.Addr, VIP: v}
		if i%2 == 0 {
			ts[i].Switches = []topology.SwitchID{topology.SwitchID(i % c.Topo.NumSwitches())}
		}
	}
	if err := c.Place(ts...); err != nil {
		t.Fatal(err)
	}
	distinct := map[*steer.Entry]bool{}
	tables := 0
	for _, tg := range ts {
		entries, _ := holders(t, c, tg.Addr)
		tables += len(entries)
		for _, e := range entries {
			distinct[e] = true
		}
	}
	if len(distinct) != n {
		t.Fatalf("%d VIPs held by %d tables hold %d entries, want %d", n, tables, len(distinct), n)
	}
}
