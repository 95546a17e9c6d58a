package hmux

import (
	"math/rand"
	"slices"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
)

// TestAccountingMatchesRecount holds the switch's table accounting — kept by
// one charge/release walk over the shared resolution entries — to a recount
// from first principles: over seeded random AddVIP / AddTIP / RemoveBackend /
// RemoveVIP sequences with DIPs shared inside a VIP, across VIPs and across
// port rules, on tables small enough that admission refuses often, Stats()
// equals what the programmed VIPs and TIPs hold after every step (a refused
// operation included: its charge is rolled back exactly, and it publishes no
// table generation), the refusal is the
// first table the candidate overflows, and once every VIP is removed only
// the TIPs' share is left — zero on a run that programmed none.
func TestAccountingMatchesRecount(t *testing.T) {
	cfg := Config{SelfAddr: selfAddr, HostTableSize: 10, ECMPTableSize: 48,
		ECMPGroupTableSize: 14, TunnelTableSize: 12, ACLTableSize: 5}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(cfg)
		withTIPs := seed%2 == 0

		// The model: every backend set a programmed address holds, default
		// set first, live DIPs only.
		vips := make(map[packet.Addr][][]packet.Addr)
		tips := make(map[packet.Addr][][]packet.Addr)
		gens := uint64(0) // one table generation per accepted operation
		recount := func(extra [][]packet.Addr) Stats {
			st := Stats{HostUsed: len(vips) + len(tips), HostCap: cfg.HostTableSize,
				ECMPCap: cfg.ECMPTableSize, GroupsCap: cfg.ECMPGroupTableSize,
				TunnelCap: cfg.TunnelTableSize, ACLCap: cfg.ACLTableSize,
				VIPs: len(vips), TIPs: len(tips), Generation: gens}
			tunnels := make(map[packet.Addr]bool)
			count := func(sets [][]packet.Addr) {
				for i, set := range sets {
					st.GroupsUsed++
					if i > 0 {
						st.ACLUsed++
					}
					st.ECMPUsed += len(set)
					for _, d := range set {
						tunnels[d] = true
					}
				}
			}
			for _, sets := range vips {
				count(sets)
			}
			for _, sets := range tips {
				count(sets)
			}
			count(extra)
			st.TunnelUsed = len(tunnels)
			return st
		}
		// refusal is the error admission owes a candidate, in the order the
		// pipeline's tables are checked.
		refusal := func(addr packet.Addr, sets [][]packet.Addr) error {
			_, isVIP := vips[addr]
			_, isTIP := tips[addr]
			st := recount(sets)
			switch {
			case isVIP || isTIP:
				return ErrVIPExists
			case st.HostUsed+1 > cfg.HostTableSize:
				return ErrHostTableFull
			case st.ECMPUsed > cfg.ECMPTableSize:
				return ErrECMPTableFull
			case st.GroupsUsed > cfg.ECMPGroupTableSize:
				return ErrECMPGroupTableFull
			case st.ACLUsed > cfg.ACLTableSize:
				return ErrACLTableFull
			case st.TunnelUsed > cfg.TunnelTableSize:
				return ErrTunnelTableFull
			}
			return nil
		}
		randSet := func() ([]service.Backend, []packet.Addr) {
			n := 1 + rng.Intn(8)
			bs := make([]service.Backend, n)
			dips := make([]packet.Addr, n)
			for i := range bs {
				// 16 DIPs in all: sets overlap, and a DIP repeats inside one.
				dips[i] = packet.AddrFrom4(100, 0, 0, byte(1+rng.Intn(16)))
				bs[i] = service.Backend{Addr: dips[i], Weight: uint32(1 + rng.Intn(3))}
			}
			return bs, dips
		}
		randAddr := func(base byte) packet.Addr { return packet.AddrFrom4(base, 0, 0, byte(1+rng.Intn(14))) }
		check := func(step int, op string) {
			t.Helper()
			if got, want := m.Stats(), recount(nil); got != want {
				t.Fatalf("seed %d step %d (%s): Stats() = %+v, recount = %+v", seed, step, op, got, want)
			}
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // AddVIP, 0–2 port rules
				v := &service.VIP{Addr: randAddr(10)}
				bs, dips := randSet()
				v.Backends = bs
				sets := [][]packet.Addr{dips}
				for p := rng.Intn(3); p > 0; p-- {
					bs, dips := randSet()
					v.Ports = append(v.Ports, service.PortRule{Port: uint16(80 + p), Backends: bs})
					sets = append(sets, dips)
				}
				want := refusal(v.Addr, sets)
				if err := m.AddVIP(v); err != want {
					t.Fatalf("seed %d step %d: AddVIP = %v, want %v", seed, step, err, want)
				} else if err == nil {
					vips[v.Addr] = sets
					gens++
				}
				check(step, "AddVIP")
			case op < 5 && withTIPs: // AddTIP
				tip := randAddr(20)
				bs, dips := randSet()
				want := refusal(tip, [][]packet.Addr{dips})
				if err := m.AddTIP(tip, bs); err != want {
					t.Fatalf("seed %d step %d: AddTIP = %v, want %v", seed, step, err, want)
				} else if err == nil {
					tips[tip] = [][]packet.Addr{dips}
					gens++
				}
				check(step, "AddTIP")
			case op < 8: // RemoveBackend: the first live occurrence in the default set
				vip, dip := randAddr(10), packet.AddrFrom4(100, 0, 0, byte(1+rng.Intn(16)))
				sets, ok := vips[vip]
				i := -1
				if ok {
					i = slices.Index(sets[0], dip)
				}
				err := steer.One(m.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vip, DIP: dip})
				if (err == nil) != (i >= 0) || (!ok && err != ErrVIPNotFound) {
					t.Fatalf("seed %d step %d: RemoveBackend(%s, %s) = %v, model holds it: %v", seed, step, vip, dip, err, i >= 0)
				}
				if i >= 0 {
					sets[0] = slices.Delete(sets[0], i, i+1)
					gens++
				}
				check(step, "RemoveBackend")
			default: // RemoveVIP
				vip := randAddr(10)
				_, ok := vips[vip]
				if err := m.RemoveVIP(vip); (err == nil) != ok {
					t.Fatalf("seed %d step %d: RemoveVIP(%s) = %v, model holds it: %v", seed, step, vip, err, ok)
				}
				if ok {
					gens++
				}
				delete(vips, vip)
				check(step, "RemoveVIP")
			}
		}
		for vip := range vips {
			if err := m.RemoveVIP(vip); err != nil {
				t.Fatal(err)
			}
			delete(vips, vip)
			gens++
		}
		check(400, "drained")
		if st := m.Stats(); !withTIPs && (st.HostUsed|st.ECMPUsed|st.GroupsUsed|st.TunnelUsed|st.ACLUsed) != 0 {
			t.Fatalf("seed %d: tables not empty after removing every VIP: %+v", seed, st)
		}
	}
}
