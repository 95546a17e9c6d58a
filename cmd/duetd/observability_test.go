package main

// The cluster-observability integration test: a switch agent, an SMux, a
// host agent and an obs-role aggregator as separate OS processes. It asserts
// the two things the fleet view exists for:
//
//  1. cross-process journeys: with an aggressive trace sampling rate, a SYN
//     flood through the SMuxOnly fallback path leaves trace hops in three
//     different processes' recorders, and the obs node stitches them into
//     ordered hmux→smux→host timelines at /cluster/journeys;
//  2. fleet alerts: a garbage flood at the SMux raises the fleet-wide drop
//     fraction, walking the fleet-vip-availability watchdog from inert to
//     firing, visible at /cluster/alerts.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"duet/internal/packet"
	"duet/internal/wire"
)

// getJSON decodes one endpoint into out; false means unreachable or bad JSON.
func getJSON(httpAddr, path string, out any) bool {
	resp, err := http.Get("http://" + httpAddr + path)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	return json.NewDecoder(resp.Body).Decode(out) == nil
}

// journey mirrors obs.Journey's JSON shape (decoded, not imported, to keep
// the test honest about the over-the-wire contract).
type journey struct {
	TraceID string  `json:"trace_id"`
	Total   float64 `json:"total"`
	Hops    []struct {
		Time float64 `json:"time"`
		Node string  `json:"node"`
		Tier string  `json:"tier"`
		Dst  string  `json:"dst"`
		Gap  float64 `json:"gap"`
	} `json:"hops"`
}

func TestClusterObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildDuetd(t)

	swData, swHTTP := freeUDP(t), freeTCP(t)
	smuxData, smuxHTTP := freeUDP(t), freeTCP(t)
	hostHTTP := freeTCP(t)
	obsHTTP := freeTCP(t)
	spec := wire.ClusterSpec{
		Nodes: []wire.NodeSpec{
			{Name: "ctl", Role: wire.RoleController, Control: freeTCP(t), HTTP: freeTCP(t)},
			{Name: "sw-1", Role: wire.RoleSwitch, Self: "1.0.0.1", Data: swData, Control: freeTCP(t), HTTP: swHTTP},
			{Name: "smux-1", Role: wire.RoleSMux, Self: "20.0.0.1", Data: smuxData, Control: freeTCP(t), HTTP: smuxHTTP},
			{Name: "host-1", Role: wire.RoleHostAgent, Self: "100.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: hostHTTP},
			{Name: "obs-1", Role: wire.RoleObs, HTTP: obsHTTP},
		},
		// SMuxOnly: the switch never learns the VIP, so ingress at sw-1 takes
		// the HMux-miss fallback through the software tier — the three-process
		// journey path.
		VIPs: []wire.VIPSpec{
			{Addr: "10.0.0.1", Backends: []wire.BackendSpec{{Addr: "100.0.0.1"}}, SMuxOnly: true},
		},
		ResyncMillis: 200,
		// The obs scrape window must cover at least one fleet poll, or the
		// cluster gauges show zero deltas between scrapes and the rate-based
		// fleet watchdogs reset their streaks.
		ScrapeMillis:      300,
		TraceEvery:        2, // aggressive sampling: half the flood leaves journeys
		ClusterPollMillis: 100,
	}
	specPath := filepath.Join(t.TempDir(), "cluster.json")
	raw, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	spawn(t, bin, specPath, "ctl")
	spawn(t, bin, specPath, "sw-1")
	spawn(t, bin, specPath, "smux-1")
	spawn(t, bin, specPath, "host-1")
	spawn(t, bin, specPath, "obs-1")

	waitCond(t, "smux programmed with the VIP", 15*time.Second, func() bool {
		return metric(smuxHTTP, "duet_wire_vips") >= 1
	})
	waitCond(t, "host programmed with its DIP", 15*time.Second, func() bool {
		return metric(hostHTTP, "duet_wire_dips") >= 1
	})
	waitCond(t, "obs node sees the whole fleet up", 15*time.Second, func() bool {
		return metric(obsHTTP, "duet_cluster_nodes_up") >= 4
	})

	// --- journeys: SYN flood at the switch tier ----------------------
	client, err := net.Dial("udp", swData)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 400; i++ {
		seq := uint32(i)
		syn := packet.BuildTCP(packet.FiveTuple{
			Src:     packet.AddrFrom4(30, byte(seq>>16), byte(seq>>8), byte(seq)),
			Dst:     packet.MustParseAddr("10.0.0.1"),
			SrcPort: uint16(1024 + seq%50000),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}, packet.TCPSyn, nil)
		if _, err := client.Write(wire.AppendFrame(nil, syn)); err != nil {
			t.Fatalf("flood write: %v", err)
		}
		if i%64 == 63 {
			time.Sleep(time.Millisecond) // stay under the UDP backlog
		}
	}
	waitCond(t, "flood delivered through the fallback path", 15*time.Second, func() bool {
		return metric(hostHTTP, "duet_wire_delivered") >= 300
	})

	var stitched *journey
	waitCond(t, "a three-process journey at /cluster/journeys", 15*time.Second, func() bool {
		var js []journey
		if !getJSON(obsHTTP, "/cluster/journeys", &js) {
			return false
		}
		for i, j := range js {
			if len(j.Hops) == 3 && j.Hops[0].Tier == "hmux" && j.Hops[1].Tier == "smux" && j.Hops[2].Tier == "host" {
				stitched = &js[i]
				return true
			}
		}
		return false
	})
	// The stitched journey crosses three processes in pipeline order, each
	// hop stamped by a different node, with non-negative inter-hop latency.
	wantNodes := []string{"1.0.0.1", "20.0.0.1", "100.0.0.1"}
	for i, h := range stitched.Hops {
		if h.Node != wantNodes[i] {
			t.Fatalf("hop %d recorded by %s, want %s (journey %+v)", i, h.Node, wantNodes[i], stitched)
		}
		if h.Gap < 0 {
			t.Fatalf("hop %d has negative wire latency %g", i, h.Gap)
		}
		if i > 0 && h.Time < stitched.Hops[i-1].Time {
			t.Fatalf("hop %d time regressed: %+v", i, stitched)
		}
	}
	if stitched.Hops[0].Dst != "10.0.0.1" {
		t.Fatalf("ingress hop dst = %s, want the VIP", stitched.Hops[0].Dst)
	}
	if stitched.Total < 0 {
		t.Fatalf("journey total = %g", stitched.Total)
	}

	// --- fleet alert: inert → firing ---------------------------------
	fleetFiring := func() bool {
		var alerts []struct {
			Rule   string `json:"rule"`
			Firing bool   `json:"firing"`
		}
		if !getJSON(obsHTTP, "/cluster/alerts", &alerts) {
			return false
		}
		for _, a := range alerts {
			if a.Rule == "fleet-vip-availability" && a.Firing {
				return true
			}
		}
		return false
	}
	if fleetFiring() {
		t.Fatal("fleet-vip-availability already firing before the garbage flood")
	}

	// Garbage at the SMux: every frame is a wire drop, so the fleet-wide
	// drop fraction saturates while the flood runs.
	smuxClient, err := net.Dial("udp", smuxData)
	if err != nil {
		t.Fatal(err)
	}
	defer smuxClient.Close()
	garbage := wire.AppendFrame(nil, []byte("not an ipv4 packet"))
	garbage[0] ^= 0xff // bad magic
	deadline := time.Now().Add(30 * time.Second)
	for !fleetFiring() {
		if time.Now().After(deadline) {
			t.Fatal("fleet-vip-availability never fired under the garbage flood")
		}
		for i := 0; i < 200; i++ {
			_, _ = smuxClient.Write(garbage)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("integration: cross-process journeys and fleet alert verified")
}
