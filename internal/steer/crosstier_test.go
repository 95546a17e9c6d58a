package steer_test

// The paper's central invariant (§3.3.1), checked across every tier at once:
// for one VIP configuration and one mutation history, the HMux, a standalone
// NIC mux, a NIC mux paired with an SMux, that SMux in each consistency mode
// and the bare steer table resolve a fresh flow to the same DIP — the DIP
// the reference group (refgroup_test.go), built here independently, picks —
// and every mux emits the same bytes. An external test package because it
// imports all three tiers.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/hmux"
	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/steer"
)

// refSet is the test's own resolution of one backend set: the resilient
// group over member indices plus the address each index stands for.
type refSet struct {
	group *steer.Group
	addrs []packet.Addr
	live  []bool
}

func newRefSet(bs []service.Backend) *refSet {
	r := &refSet{}
	var members, weights []uint32
	for i, b := range bs {
		members, weights = append(members, uint32(i)), append(weights, b.Weight)
		r.addrs = append(r.addrs, b.Addr)
		r.live = append(r.live, true)
	}
	r.group = steer.NewGroup(members, weights)
	return r
}

// remove takes the first live occurrence of dip out of the group.
func (r *refSet) remove(t *testing.T, dip packet.Addr) {
	t.Helper()
	for i, a := range r.addrs {
		if a == dip && r.live[i] {
			if err := r.group.Remove(uint32(i)); err != nil {
				t.Fatal(err)
			}
			r.live[i] = false
			return
		}
	}
	t.Fatalf("reference holds no live %s", dip)
}

// liveBackends is the set's configuration as the control plane records it
// after removals: the surviving backends, compacted, in order.
func (r *refSet) liveBackends(bs []service.Backend) []service.Backend {
	var out []service.Backend
	for i, b := range bs {
		if r.live[i] {
			out = append(out, b)
		}
	}
	return out
}

// ref is the reference resolver of one VIP: a port rule's set overrides the
// default one (Figure 8).
type ref struct {
	def   *refSet
	ports map[uint16]*refSet
}

func newRef(v *service.VIP) *ref {
	r := &ref{def: newRefSet(v.Backends), ports: make(map[uint16]*refSet)}
	for _, pr := range v.Ports {
		r.ports[pr.Port] = newRefSet(pr.Backends)
	}
	return r
}

func (r *ref) pick(tuple packet.FiveTuple) (packet.Addr, bool) {
	set := r.def
	if ps, ok := r.ports[tuple.DstPort]; ok {
		set = ps
	}
	if set.group.Size() == 0 {
		return 0, false
	}
	return set.addrs[set.group.SlotMember(int(ecmp.Hash(tuple)%steer.Slots))], true
}

func TestEveryTierResolvesLikeTheReferenceGroup(t *testing.T) {
	self := packet.MustParseAddr("20.0.0.1")
	vip := packet.MustParseAddr("10.0.0.1")
	var flowSeq uint32
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := 0.0
		hm := hmux.New(hmux.DefaultConfig(self))
		alone := nmux.New(nmux.Config{SelfAddr: self, TableSize: 1 << 20})
		sm := smux.New(smux.Config{SelfAddr: self, Clock: func() float64 { return now }})
		paired := nmux.New(nmux.Config{SelfAddr: self, TableSize: 1 << 20, Steer: sm.Steer()})
		tbl := steer.NewTable(steer.Config{})

		nextDIP := byte(0)
		randBackends := func(n int) []service.Backend {
			bs := make([]service.Backend, n)
			for i := range bs {
				nextDIP++
				bs[i] = service.Backend{Addr: packet.AddrFrom4(100, byte(seed), 0, nextDIP), Weight: uint32(1 + rng.Intn(4))}
			}
			return bs
		}
		v := &service.VIP{Addr: vip, Backends: randBackends(1 + rng.Intn(64))}
		for p := rng.Intn(3); p > 0; p-- {
			v.Ports = append(v.Ports, service.PortRule{Port: uint16(8000 + p), Backends: randBackends(1 + rng.Intn(8))})
		}
		for _, add := range []func(*service.VIP) error{hm.AddVIP, alone.AddVIP, sm.AddVIP, paired.AddVIP, tbl.Add} {
			if err := add(v); err != nil {
				t.Fatal(err)
			}
		}
		want := newRef(v)

		// agree sends fresh flows through every tier and holds each to the
		// reference pick and to the bytes the reference encapsulation gives.
		agree := func(step string) {
			t.Helper()
			for i := 0; i < 48; i++ {
				flowSeq++
				tuple := packet.FiveTuple{
					Src: packet.Addr(0x1e000000 + flowSeq), Dst: vip,
					SrcPort: uint16(1024 + flowSeq%50000), DstPort: uint16(8000 + rng.Intn(3)),
				}
				// A SYN resolves against the current generation even while a
				// hybrid SMux still drains the last one; UDP only once the
				// drain has closed (agree runs on both sides of it).
				var data []byte
				if sm.Steer().DrainActive() || rng.Intn(2) == 0 {
					tuple.Proto = packet.ProtoTCP
					data = packet.BuildTCP(tuple, packet.TCPSyn, nil)
				} else {
					tuple.Proto = packet.ProtoUDP
					data = packet.BuildUDP(tuple, nil)
				}
				dip, ok := want.pick(tuple)
				var wire []byte
				if ok {
					var err error
					if wire, err = packet.Encapsulate(nil, self, dip, data, 64); err != nil {
						t.Fatal(err)
					}
				}
				check := func(tier string, got packet.Addr, pkt []byte, err error) {
					t.Helper()
					switch {
					case !ok && err == nil:
						t.Fatalf("seed %d %s: %s resolved %v to %s; the reference group is empty", seed, step, tier, tuple, got)
					case !ok:
					case err != nil:
						t.Fatalf("seed %d %s: %s: %v", seed, step, tier, err)
					case got != dip:
						t.Fatalf("seed %d %s: %s picked %s for %v, the reference group %s", seed, step, tier, got, tuple, dip)
					case pkt != nil && !bytes.Equal(pkt, wire):
						t.Fatalf("seed %d %s: %s emitted other bytes than the reference encapsulation for %v", seed, step, tier, tuple)
					}
				}
				hr, err := hm.Process(data, nil)
				check("hmux", hr.Encap, hr.Packet, err)
				if !ok && err != hmux.ErrNoTunnelEntry {
					t.Fatalf("seed %d %s: hmux on an empty group: %v", seed, step, err)
				}
				nr, err := alone.Process(data, nil)
				check("standalone nmux", nr.Encap, nr.Packet, err)
				nr, err = paired.Process(data, nil)
				check("paired nmux", nr.Encap, nr.Packet, err)
				d, err := tbl.Lookup(tuple)
				check("steer table", d, nil, err)
				d, err = hm.Lookup(tuple)
				check("hmux lookup", d, nil, err)
				// Each mode meets the flow fresh: the stateful pin of one
				// pass is not consulted by the next two, and all three pin
				// (or not) the same DIP.
				for _, mode := range steer.Modes() {
					if err := steer.One(sm.Apply, steer.Op{Kind: steer.OpMode, Addr: vip, Mode: mode}); err != nil {
						t.Fatal(err)
					}
					sr, err := sm.Process(data, nil)
					check("smux "+mode.String(), sr.Encap, sr.Packet, err)
				}
			}
		}
		// settle closes the drain window the last mutation opened.
		settle := func() {
			now += 2 * steer.DefaultDrainWindow
			sm.Tick()
		}
		// reprogram pushes a replaced backend configuration to every tier: in
		// place where the tier can (its per-flow state masks the rehash), by
		// the §5.2 bounce on the HMux, which cannot.
		reprogram := func(next *service.VIP) {
			t.Helper()
			if err := hm.RemoveVIP(vip); err != nil {
				t.Fatal(err)
			}
			for _, set := range []func(*service.VIP) error{hm.AddVIP, sm.UpdateVIP, tbl.Update} {
				if err := set(next); err != nil {
					t.Fatal(err)
				}
			}
			for _, nic := range []*nmux.Mux{alone, paired} {
				if err := steer.One(nic.Apply, steer.Op{Kind: steer.OpUpdate, VIP: next}); err != nil {
					t.Fatal(err)
				}
			}
			v, want = next, newRef(next)
		}
		removeBackend := func(dip packet.Addr) {
			t.Helper()
			// The paired NIC first, as core.Cluster orders it: the SMux owns
			// the table both read.
			for _, apply := range []func([]steer.Op){hm.Apply, alone.Apply, paired.Apply, sm.Apply, tbl.Apply} {
				if err := steer.One(apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vip, DIP: dip}); err != nil {
					t.Fatalf("seed %d: RemoveBackend(%s): %v", seed, dip, err)
				}
			}
			want.def.remove(t, dip)
		}

		agree("added")
		settle()
		agree("added, drained")
		for step := 0; step < 6; step++ {
			live := want.def.liveBackends(v.Backends)
			switch op := rng.Intn(3); {
			case op == 0 && len(live) > 0: // RemoveBackend
				removeBackend(live[rng.Intn(len(live))].Addr)
			case op == 1: // UpdateVIP with a grown set
				next := *v
				next.Backends = append(slices.Clone(live), randBackends(1+rng.Intn(3))...)
				reprogram(&next)
			case len(live) > 0: // remove, then re-add: back to the configured list
				restored := *v
				restored.Backends = slices.Clone(live)
				removeBackend(live[rng.Intn(len(live))].Addr)
				agree("removed before re-add")
				reprogram(&restored)
			default:
				continue
			}
			agree("mutated")
			settle()
			agree("mutated, drained")
		}
		// Down to no backend at all: every tier refuses, none picks.
		for _, b := range want.def.liveBackends(v.Backends) {
			removeBackend(b.Addr)
		}
		agree("emptied")
	}
}
