package wire

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"duet/internal/core"
	"duet/internal/delta"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/topology"
)

// TestSwitchFallThroughMatchesCluster is the orchestration dimension of the
// delivery matrix: a switch node whose tables miss the VIP forwards the
// client's packet to an smux node, which runs it through its host mux pair,
// and the frame a host receives is byte for byte the encap core.Cluster's
// pair produces for the same VIP, backends, SMux address and packet — in
// every consistency mode, over TCP and UDP, with the NIC table off, and on
// with the VIP in it (a hit) or not (a miss into the SMux). Neither
// orchestration moves a drop counter.
func TestSwitchFallThroughMatchesCluster(t *testing.T) {
	const smuxSelf = "192.168.0.0" // core.New's address for its first SMux
	for _, nic := range []bool{false, true} {
		t.Run(fmt.Sprintf("nic=%v", nic), func(t *testing.T) {
			// Every host is one tap socket the test reads frames from.
			tap, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer tap.Close()
			spec := &ClusterSpec{Nodes: []NodeSpec{
				{Name: "sw-1", Role: RoleSwitch, Self: "172.16.0.1", Data: freeUDP(t), Control: freeTCP(t)},
				{Name: "smux-1", Role: RoleSMux, Self: smuxSelf, Data: freeUDP(t), Control: freeTCP(t)},
			}}
			if nic {
				spec.Nodes[1].NMuxTable = 256
			}

			// One VIP per mode and NIC placement, the same on both sides.
			cfg := core.Config{Topology: topology.TestbedConfig(), NumSMuxes: 1}
			if nic {
				cfg.NMuxTableSize = 256
			}
			c, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			onNIC := []bool{false}
			if nic {
				onNIC = append(onNIC, true)
			}
			var vips []VIPSpec
			for _, mode := range steer.Modes() {
				for _, hit := range onNIC {
					k := len(vips) + 1
					vs := VIPSpec{Addr: fmt.Sprintf("10.0.%d.1", k), Mode: mode.String(), Nic: hit, SMuxOnly: true}
					v := &service.VIP{Addr: packet.MustParseAddr(vs.Addr)}
					for j := 1; j <= 2; j++ {
						dip := fmt.Sprintf("100.0.%d.%d", k, j)
						vs.Backends = append(vs.Backends, BackendSpec{Addr: dip, Weight: 1})
						v.Backends = append(v.Backends, service.Backend{Addr: packet.MustParseAddr(dip), Weight: 1})
						spec.Nodes = append(spec.Nodes, NodeSpec{
							Name: "host-" + dip, Role: RoleHostAgent, Self: dip,
							Data: tap.LocalAddr().String(), Control: freeTCP(t),
						})
					}
					vips = append(vips, vs)
					must(t, c.AddVIP(v))
					must(t, c.SetVIPMode(v.Addr, mode))
					if hit {
						must(t, c.AssignToNMux(v.Addr))
					}
				}
			}
			var nodes []*Node
			for _, name := range []string{"sw-1", "smux-1"} {
				n, err := StartNode(spec, name)
				if err != nil {
					t.Fatal(err)
				}
				defer n.Close()
				cc := DialControl(n.ControlAddr(), n.Reg)
				defer cc.Close()
				if _, err := pushDelta(cc, delta.Diff(delta.NewState(), configAt(t, 1, vips...))); err != nil {
					t.Fatalf("push to %s: %v", name, err)
				}
				nodes = append(nodes, n)
			}
			client, err := net.Dial("udp", nodes[0].DataAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			reg, _ := c.Telemetry()
			buf := make([]byte, 4096)
			for i, vs := range vips {
				for _, proto := range []string{"tcp", "udp"} {
					ft := packet.FiveTuple{
						Src: packet.AddrFrom4(30, 0, 0, byte(i)), Dst: packet.MustParseAddr(vs.Addr),
						SrcPort: uint16(40000 + i), DstPort: 80,
					}
					pkt := packet.BuildTCP(ft, packet.TCPSyn, []byte("hello"))
					if proto == "udp" {
						pkt = packet.BuildUDP(ft, []byte("datagram"))
					}
					d, err := c.Deliver(pkt)
					if err != nil {
						t.Fatalf("%s %s: core: %v", vs.Addr, proto, err)
					}
					wantTier := "smux"
					if vs.Nic {
						wantTier = "nmux"
					}
					if hop := d.Hops()[0]; hop.Kind != wantTier || hop.Node != smuxSelf {
						t.Fatalf("%s %s: core served it at %+v, want the %s at %s", vs.Addr, proto, hop, wantTier, smuxSelf)
					}
					want, err := packet.Encapsulate(nil, packet.MustParseAddr(smuxSelf), d.Host, pkt, 64)
					if err != nil {
						t.Fatal(err)
					}

					if _, err := client.Write(AppendFrame(nil, pkt)); err != nil {
						t.Fatal(err)
					}
					_ = tap.SetReadDeadline(time.Now().Add(10 * time.Second))
					n, _, err := tap.ReadFromUDP(buf)
					if err != nil {
						t.Fatalf("%s %s: no host received the packet: %v", vs.Addr, proto, err)
					}
					got, err := DecodeFrame(buf[:n])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s %s %s: host received\n %x\nwant core's\n %x", vs.Addr, vs.Mode, proto, got, want)
					}
				}
			}

			// The switch counts every packet, and the smux node's tier counts
			// agree with the tiers core reported.
			var total, nicHits uint64
			for _, vs := range vips {
				total += 2
				if vs.Nic {
					nicHits += 2
				}
			}
			sw, sm := nodes[0], nodes[1]
			waitFor(t, "the stage counters", func() bool {
				return counter(sw, "hmux.packets") == total &&
					counter(sm, "nmux.encapped") == nicHits && counter(sm, "smux.encapped") == total-nicHits
			})
			for name, n := range map[string]*Node{"core": nil, "sw-1": sw, "smux-1": sm} {
				ctrs := reg.Counters()
				if n != nil {
					ctrs = n.Reg.Counters()
				}
				for _, ctr := range ctrs {
					if strings.Contains(ctr.Name(), ".drops.") && ctr.Value() != 0 {
						t.Errorf("%s: %s = %d on delivered packets", name, ctr.Name(), ctr.Value())
					}
				}
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
