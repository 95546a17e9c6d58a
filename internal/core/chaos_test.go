package core

import (
	"math/rand"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/topology"
)

// TestChaos drives a cluster through hundreds of random control-plane
// operations — VIP add/remove, HMux assign/withdraw, replication, DIP
// add/remove, switch fail/recover — and after every step verifies the
// system invariant the paper's design guarantees: every configured VIP
// with at least one live backend is deliverable, and the chosen DIP is one
// of its current backends.
func TestChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	c, err := New(Config{
		Topology: topology.Config{
			Containers:       2,
			ToRsPerContainer: 4,
			AggsPerContainer: 2,
			Cores:            4,
			ServersPerToR:    8,
		},
		NumSMuxes: 3,
		Aggregate: packet.MustParsePrefix("10.0.0.0/8"),
	})
	if err != nil {
		t.Fatal(err)
	}

	type vipState struct {
		addr     packet.Addr
		backends map[packet.Addr]bool
	}
	vips := map[packet.Addr]*vipState{}
	nextVIP := 1
	nextDIP := 1
	failed := map[topology.SwitchID]bool{}

	mkDIP := func() packet.Addr {
		d := packet.AddrFrom4(100, byte(nextDIP>>8), byte(nextDIP), 1)
		nextDIP++
		return d
	}
	randomVIP := func() *vipState {
		for _, v := range vips {
			return v
		}
		return nil
	}
	randomSwitch := func() topology.SwitchID {
		return topology.SwitchID(rng.Intn(c.Topo.NumSwitches()))
	}

	verify := func(step int) {
		for _, v := range vips {
			if len(v.backends) == 0 {
				continue
			}
			tuple := packet.FiveTuple{
				Src: packet.AddrFrom4(30, 0, byte(step>>8), byte(step)), Dst: v.addr,
				SrcPort: uint16(1024 + step), DstPort: 80, Proto: packet.ProtoTCP,
			}
			d, err := c.Deliver(packet.BuildTCP(tuple, packet.TCPSyn, nil))
			if err != nil {
				t.Fatalf("step %d: VIP %s undeliverable: %v", step, v.addr, err)
			}
			if !v.backends[d.DIP] {
				t.Fatalf("step %d: VIP %s delivered to foreign DIP %s", step, v.addr, d.DIP)
			}
		}
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op <= 2 || len(vips) == 0: // add VIP
			if len(vips) > 30 {
				continue
			}
			addr := packet.AddrFrom4(10, 0, byte(nextVIP>>8), byte(nextVIP))
			nextVIP++
			n := 1 + rng.Intn(4)
			st := &vipState{addr: addr, backends: map[packet.Addr]bool{}}
			var bs []service.Backend
			for i := 0; i < n; i++ {
				d := mkDIP()
				st.backends[d] = true
				bs = append(bs, service.Backend{Addr: d, Weight: 1})
			}
			if err := c.AddVIP(&service.VIP{Addr: addr, Backends: bs}); err != nil {
				t.Fatalf("step %d: AddVIP: %v", step, err)
			}
			vips[addr] = st

		case op == 3: // remove VIP
			v := randomVIP()
			if err := c.RemoveVIP(v.addr); err != nil {
				t.Fatalf("step %d: RemoveVIP: %v", step, err)
			}
			delete(vips, v.addr)

		case op == 4 || op == 5: // place on HMux (single or replicated), from wherever it is
			v := randomVIP()
			sw := randomSwitch()
			if failed[sw] {
				continue
			}
			if rng.Intn(4) == 0 {
				sw2 := randomSwitch()
				if sw2 == sw || failed[sw2] {
					continue
				}
				if err := placeOn(c, v.addr, sw, sw2); err != nil {
					t.Fatalf("step %d: place on %d and %d: %v", step, sw, sw2, err)
				}
			} else if err := placeOn(c, v.addr, sw); err != nil {
				t.Fatalf("step %d: place on %d: %v", step, sw, err)
			}

		case op == 6: // withdraw
			v := randomVIP()
			if err := placeOn(c, v.addr); err != nil {
				t.Fatalf("step %d: withdraw: %v", step, err)
			}

		case op == 7: // remove a DIP in place, on the SMuxes and any switch holding the VIP
			v := randomVIP()
			if len(v.backends) < 2 {
				continue
			}
			var victim packet.Addr
			for d := range v.backends {
				victim = d
				break
			}
			if err := removeBackend(c, v.addr, victim); err != nil {
				t.Fatalf("step %d: remove DIP: %v", step, err)
			}
			delete(v.backends, victim)

		case op == 8: // fail a switch
			if len(failed) >= 3 {
				continue
			}
			sw := randomSwitch()
			if failed[sw] {
				continue
			}
			// Keep at least one agg per container and one core alive so
			// nothing partitions (the paper's failure model never isolates
			// the fabric either).
			if wouldPartition(c.Topo, failed, sw) {
				continue
			}
			c.FailSwitch(sw)
			failed[sw] = true

		case op == 9: // recover a switch
			for sw := range failed {
				c.RecoverSwitch(sw)
				delete(failed, sw)
				break
			}
		}
		verify(step)
	}

	// Sanity: the run actually exercised a mix of states.
	if len(vips) == 0 {
		t.Fatal("chaos ended with no VIPs; vacuous")
	}
}

// wouldPartition conservatively refuses failures that could cut all paths
// of some rack: it requires ≥2 live Aggs per container and ≥2 live Cores.
func wouldPartition(topo *topology.Topology, failed map[topology.SwitchID]bool, next topology.SwitchID) bool {
	down := func(s topology.SwitchID) bool { return failed[s] || s == next }
	for c := 0; c < topo.Cfg.Containers; c++ {
		live := 0
		for j := 0; j < topo.Cfg.AggsPerContainer; j++ {
			if !down(topo.AggID(c, j)) {
				live++
			}
		}
		if live < 2 {
			return true
		}
	}
	liveCores := 0
	for i := 0; i < topo.Cfg.Cores; i++ {
		if !down(topo.CoreID(i)) {
			liveCores++
		}
	}
	if liveCores < 2 {
		return true
	}
	// ToRs host sources/DIP agents in this test; don't fail them.
	if topo.Switches[next].Kind == topology.ToR {
		return true
	}
	return false
}
