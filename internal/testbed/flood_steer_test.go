package testbed

import (
	"math/rand"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/steer"
)

// churnFlood builds a small flood where the last VIP rides the SMux
// backstop (no HMux /32), the shape the steer-mode churn tests need.
func churnFlood(t *testing.T, mode steer.Mode) (*Flood, packet.Addr) {
	t.Helper()
	f, err := NewFlood(FloodConfig{
		NumVIPs:      4,
		DIPsPerVIP:   4,
		HMuxFraction: 0.25, // VIPs[1..3] stay on the SMux aggregate
		SMuxMode:     mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, f.VIPs[3]
}

// connPkt builds one packet of connection i to the VIP; flags distinguishes
// the opening SYN from mid-flow segments.
func connPkt(vip packet.Addr, i int, flags uint8) []byte {
	return packet.BuildTCP(packet.FiveTuple{
		Src:     packet.AddrFrom4(30, 1, byte(i>>8), byte(i)),
		Dst:     vip,
		SrcPort: uint16(1024 + i),
		DstPort: 80,
		Proto:   packet.ProtoTCP,
	}, flags, nil)
}

// TestFloodChurnNoBrokenConnections is the acceptance churn flood: in every
// steer mode, a population of established connections rides out repeated
// remove→re-add backend churn — at least three steer-table epochs — and no
// connection whose DIP survives the churn ever moves. Flows on the removed
// DIP are the paper's §5.1 "necessarily terminated" case; they must still
// deliver (to some live DIP), just not preserve affinity.
func TestFloodChurnNoBrokenConnections(t *testing.T) {
	const conns = 256
	for _, mode := range steer.Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			f, vip := churnFlood(t, mode)
			cfg, ok := f.Cluster.VIP(vip)
			if !ok {
				t.Fatalf("VIP %s not configured", vip)
			}
			full := append([]service.Backend(nil), cfg.Backends...)

			// Establish the connection population and record each flow's DIP.
			// tracked[i] goes false once conn i's DIP is churned out: that
			// connection is the §5.1 "necessarily terminated" case, and later
			// rounds make no affinity claim about its replacement.
			dip0 := make([]packet.Addr, conns)
			tracked := make([]bool, conns)
			surviving := 0
			for i := 0; i < conns; i++ {
				d, err := f.Cluster.Deliver(connPkt(vip, i, packet.TCPSyn))
				if err != nil {
					t.Fatalf("conn %d SYN: %v", i, err)
				}
				dip0[i] = d.DIP
				tracked[i] = true
				surviving++
			}

			epoch0 := f.Cluster.SMuxes[0].Epoch()
			for round := 0; round < 2; round++ {
				victim := full[round].Addr
				for i := 0; i < conns; i++ {
					if tracked[i] && dip0[i] == victim {
						tracked[i] = false
						surviving--
					}
				}
				for _, sm := range f.Cluster.SMuxes {
					if err := steer.One(sm.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vip, DIP: victim}); err != nil {
						t.Fatalf("round %d: RemoveBackend: %v", round, err)
					}
				}
				// Mid-flow traffic during the churn window.
				for i := 0; i < conns; i++ {
					d, err := f.Cluster.Deliver(connPkt(vip, i, packet.TCPAck))
					if err != nil {
						t.Fatalf("round %d conn %d mid-flow: %v", round, i, err)
					}
					if tracked[i] && d.DIP != dip0[i] {
						t.Fatalf("round %d conn %d broke: DIP %s → %s (victim %s, mode %s)",
							round, i, dip0[i], d.DIP, victim, mode)
					}
					if d.DIP == victim {
						t.Fatalf("round %d conn %d landed on removed DIP %s", round, i, victim)
					}
				}
				// Heal: the victim returns; the table converges back.
				for _, sm := range f.Cluster.SMuxes {
					if err := sm.UpdateVIP(&service.VIP{Addr: vip, Backends: full}); err != nil {
						t.Fatalf("round %d: UpdateVIP: %v", round, err)
					}
				}
				for i := 0; i < conns; i++ {
					d, err := f.Cluster.Deliver(connPkt(vip, i, packet.TCPAck))
					if err != nil {
						t.Fatalf("round %d conn %d post-heal: %v", round, i, err)
					}
					if tracked[i] && d.DIP != dip0[i] {
						t.Fatalf("round %d conn %d broke after heal: DIP %s → %s",
							round, i, dip0[i], d.DIP)
					}
				}
			}
			if surviving == 0 {
				t.Fatal("every connection was churned out; the affinity claim was vacuous")
			}
			if got := f.Cluster.SMuxes[0].Epoch() - epoch0; got < 3 {
				t.Fatalf("churn spanned %d steer epochs, want >= 3", got)
			}
		})
	}
}

// TestFloodModesEncapByteIdentical checks the refactor's central invariant
// end to end: in steady state (no churn), the stateless and hybrid paths
// hand the backend exactly the bytes the stateful path would — same encap,
// same inner packet — for the same client traffic.
func TestFloodModesEncapByteIdentical(t *testing.T) {
	const n = 512
	deliver := func(mode steer.Mode) [][]byte {
		f, err := NewFlood(FloodConfig{SMuxMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, n)
		for i, p := range f.Packets(n) {
			d, err := f.Cluster.Deliver(p)
			if err != nil {
				t.Fatalf("mode %s packet %d: %v", mode, i, err)
			}
			out[i] = d.Packet
		}
		return out
	}
	want := deliver(steer.ModeStateful)
	for _, mode := range []steer.Mode{steer.ModeStateless, steer.ModeHybrid} {
		got := deliver(mode)
		for i := range want {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("mode %s packet %d differs from stateful path:\n got %x\nwant %x",
					mode, i, got[i], want[i])
			}
		}
	}
}

// TestSteerTiersAgree is the cross-tier agreement property: for any
// 5-tuple, the SMux dataplane, the paired NIC match table, and a raw steer
// lookup must resolve the same DIP at the same table epoch — they are three
// readers of one table, not three hash implementations.
func TestSteerTiersAgree(t *testing.T) {
	self := packet.MustParseAddr("20.0.0.1")
	sm := smux.New(smux.DefaultConfig(self))
	nm := nmux.New(nmux.Config{SelfAddr: self, TableSize: 4096, Steer: sm.Steer()})

	vip := packet.MustParseAddr("10.0.0.1")
	backends := make([]service.Backend, 6)
	for i := range backends {
		backends[i] = service.Backend{Addr: packet.AddrFrom4(100, 0, byte(i), 1), Weight: 1}
	}
	v := &service.VIP{Addr: vip, Backends: backends}
	if err := sm.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	if err := nm.AddVIP(v); err != nil {
		t.Fatal(err)
	}
	// Stateless keeps the SMux off its connection table, so all three reads
	// are pure table lookups.
	if err := steer.One(sm.Apply, steer.Op{Kind: steer.OpMode, Addr: vip, Mode: steer.ModeStateless}); err != nil {
		t.Fatal(err)
	}

	check := func(rng *rand.Rand, rounds int) {
		view := sm.Steer().View()
		e, ok := view.Find(vip)
		if !ok {
			t.Fatal("steer table lost the VIP")
		}
		for i := 0; i < rounds; i++ {
			tuple := packet.FiveTuple{
				Src:     packet.AddrFrom4(30, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))),
				Dst:     vip,
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstPort: 80,
				Proto:   packet.ProtoTCP,
			}
			want, err := e.DIP(tuple, ecmp.Hash(tuple))
			if err != nil {
				t.Fatalf("steer DIP: %v", err)
			}
			res, err := sm.Process(packet.BuildTCP(tuple, packet.TCPSyn, nil), nil)
			if err != nil {
				t.Fatalf("smux Process: %v", err)
			}
			if res.Encap != want {
				t.Fatalf("tuple %+v: smux chose %s, steer says %s", tuple, res.Encap, want)
			}
			got, err := nm.Lookup(tuple)
			if err != nil {
				t.Fatalf("nmux Lookup: %v", err)
			}
			if got != want {
				t.Fatalf("tuple %+v: nmux chose %s, steer says %s", tuple, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	check(rng, 500)

	// The property must hold at every epoch, not just the first: churn the
	// backend set and re-check.
	if err := steer.One(sm.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: vip, DIP: backends[2].Addr}); err != nil {
		t.Fatal(err)
	}
	check(rng, 500)
	if err := sm.UpdateVIP(v); err != nil {
		t.Fatal(err)
	}
	check(rng, 500)
}
