package nmux

import (
	"bytes"
	"strings"
	"testing"

	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

var pairSelf = packet.AddrFrom4(192, 168, 0, 1)

// newPair is one server's pair on its own registry: an SMux, and — nic set —
// a NIC table reading the SMux's steer table, as core and wire build them.
func newPair(t *testing.T, nic bool) (Pair, *smux.Mux, *Mux, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	sm := smux.New(smux.DefaultConfig(pairSelf))
	sm.SetTelemetry(reg, rec, 1)
	var nm *Mux
	if nic {
		nm = New(Config{SelfAddr: pairSelf, TableSize: 64, Steer: sm.Steer()})
		nm.SetTelemetry(reg, rec, 2)
	}
	return Pair{NIC: nm, SMux: sm}, sm, nm, reg
}

// TestPair holds the pair to the one order: the NIC table serves what it
// holds, a table miss falls through to the SMux, any other NIC error is a
// drop that does not, and a malformed packet is counted once, by the first
// stage. Every counter the case does not name stays zero.
func TestPair(t *testing.T) {
	v := testVIP(1, 2)
	cases := []struct {
		name    string
		nic     bool
		setup   func(t *testing.T, sm *smux.Mux, nm *Mux)
		pkt     []byte
		tier    telemetry.TraceTier // 0: the pair refuses the packet
		parsed  bool                // Parse accepts the packet
		counted map[string]uint64
	}{
		{
			name: "nic-hit", nic: true, parsed: true, tier: telemetry.TraceTierNMux,
			setup: func(t *testing.T, sm *smux.Mux, nm *Mux) { mustAdd(t, sm.AddVIP(v), nm.AddVIP(v)) },
			counted: map[string]uint64{
				"nmux.packets": 1, "nmux.hits": 1, "nmux.encapped": 1, "nmux.flow.inserts": 1,
			},
		},
		{
			name: "nic-miss-smux", nic: true, parsed: true, tier: telemetry.TraceTierSMux,
			setup: func(t *testing.T, sm *smux.Mux, _ *Mux) { mustAdd(t, sm.AddVIP(v)) },
			counted: map[string]uint64{
				"nmux.packets": 1, "nmux.misses": 1,
				"smux.packets": 1, "smux.encapped": 1, "smux.conn.misses": 1, "smux.conn.inserts": 1,
			},
		},
		{
			// The NIC holds the VIP but it has no live backend: that is the
			// NIC's drop, and the SMux never sees the packet.
			name: "nic-drop-no-backend", nic: true, parsed: true,
			setup: func(t *testing.T, sm *smux.Mux, nm *Mux) {
				mustAdd(t, sm.AddVIP(v), nm.AddVIP(v))
				for _, b := range v.Backends {
					mustAdd(t, steer.One(sm.Apply, steer.Op{Kind: steer.OpRemoveDIP, Addr: v.Addr, DIP: b.Addr}))
				}
			},
			counted: map[string]uint64{"nmux.packets": 1, "nmux.hits": 1, "nmux.drops.no_backend": 1},
		},
		{
			name: "nil-nic", parsed: true, tier: telemetry.TraceTierSMux,
			setup: func(t *testing.T, sm *smux.Mux, _ *Mux) { mustAdd(t, sm.AddVIP(v)) },
			counted: map[string]uint64{
				"smux.packets": 1, "smux.encapped": 1, "smux.conn.misses": 1, "smux.conn.inserts": 1,
			},
		},
		{
			name: "malformed", nic: true, pkt: []byte{0x45, 0, 0},
			setup:   func(t *testing.T, sm *smux.Mux, nm *Mux) { mustAdd(t, sm.AddVIP(v), nm.AddVIP(v)) },
			counted: map[string]uint64{"nmux.packets": 1, "nmux.drops.malformed": 1},
		},
		{
			name: "malformed-nil-nic", pkt: []byte{0x45, 0, 0},
			setup:   func(t *testing.T, sm *smux.Mux, _ *Mux) { mustAdd(t, sm.AddVIP(v)) },
			counted: map[string]uint64{"smux.packets": 1, "smux.drops.malformed": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, sm, nm, reg := newPair(t, tc.nic)
			tc.setup(t, sm, nm)
			pkt := tc.pkt
			if pkt == nil {
				pkt = tcpPacket(t, flowTuple(v.Addr, 7))
			}
			var tally PairTally
			f, err := p.Parse(pkt)
			if (err == nil) != tc.parsed {
				t.Fatalf("Parse = %v, want accepted %v", err, tc.parsed)
			}
			if err == nil {
				res, err := p.ProcessSampled(pkt, nil, f, ecmp.Hash(f.Tuple), true, &tally)
				switch {
				case tc.tier == 0 && err == nil:
					t.Fatalf("served by %s, want refused", res.Tier)
				case tc.tier != 0 && err != nil:
					t.Fatalf("ProcessSampled = %v, want served by %s", err, tc.tier)
				case tc.tier != 0:
					if res.Tier != tc.tier {
						t.Errorf("served by %s, want %s", res.Tier, tc.tier)
					}
					want, err := packet.Encapsulate(nil, pairSelf, res.Encap, pkt, 64)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(res.Packet, want) || (res.Encap != v.Backends[0].Addr && res.Encap != v.Backends[1].Addr) {
						t.Errorf("packet %x to %s, want the client's packet from %s to a backend", res.Packet, res.Encap, pairSelf)
					}
				}
			}
			NewPairCounters(reg, tc.nic).Flush(&tally)
			for _, c := range reg.Counters() {
				if got, want := c.Value(), tc.counted[c.Name()]; got != want {
					t.Errorf("%s = %d, want %d", c.Name(), got, want)
				}
			}
			if !tc.nic {
				for _, c := range reg.Counters() {
					if strings.HasPrefix(c.Name(), "nmux.") {
						t.Errorf("a pair without a NIC table exports %s", c.Name())
					}
				}
			}
		})
	}
}

func mustAdd(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPairZeroAlloc: both paths through the pair — a NIC hit, and a NIC miss
// served by the SMux — allocate nothing once the flow is established.
func TestPairZeroAlloc(t *testing.T) {
	p, sm, nm, _ := newPair(t, true)
	nicVIP, smVIP := testVIP(1, 2), testVIP(2, 2)
	mustAdd(t, sm.AddVIP(nicVIP), nm.AddVIP(nicVIP), sm.AddVIP(smVIP))
	for _, tc := range []struct {
		name string
		vip  packet.Addr
		tier telemetry.TraceTier
	}{
		{"nic-hit", nicVIP.Addr, telemetry.TraceTierNMux},
		{"nic-miss-smux", smVIP.Addr, telemetry.TraceTierSMux},
	} {
		pkt := tcpPacket(t, flowTuple(tc.vip, 3))
		f, err := p.Parse(pkt)
		if err != nil {
			t.Fatal(err)
		}
		hash := ecmp.Hash(f.Tuple)
		buf := make([]byte, 0, 256)
		var tally PairTally
		run := func() {
			res, err := p.ProcessSampled(pkt, buf[:0], f, hash, false, &tally)
			if err != nil || res.Tier != tc.tier {
				t.Fatalf("%s: served by %s (%v), want %s", tc.name, res.Tier, err, tc.tier)
			}
		}
		run() // pins the flow
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("%s: %v allocs per packet, want 0", tc.name, allocs)
		}
	}
}
