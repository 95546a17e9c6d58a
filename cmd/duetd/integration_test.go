package main

// The multi-process wire integration test: build the duetd binary, spawn a
// controller, an SMux and a host agent as separate OS processes on loopback,
// and drive real traffic through real sockets. It asserts the four things the
// wire transport exists for:
//
//  1. end-to-end delivery: client SYN frames → SMux process → UDP → host
//     agent process, observed through the host's /metrics endpoint;
//  2. byte-identical encap: the frame the SMux forwards equals what
//     packet.Encapsulate produces in-process;
//  3. Fig-12 process failover: kill -9 the SMux, restart it blank on the
//     same ports, and watch the controller's anti-entropy reprogram it
//     until traffic flows again;
//  4. observability: a garbage flood trips the wire-drops watchdog, visible
//     on /alerts and as a 503 on /healthz.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"duet/internal/packet"
	"duet/internal/wire"
)

// buildDuetd compiles the duetd binary once per test run.
func buildDuetd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "duetd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build duetd: %v\n%s", err, out)
	}
	return bin
}

func freeTCP(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func freeUDP(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	return addr
}

// proc is one spawned duetd role.
type proc struct {
	name string
	cmd  *exec.Cmd
}

func spawn(t *testing.T, bin, specPath, name string) *proc {
	t.Helper()
	cmd := exec.Command(bin, "-spec", specPath, "-node", name)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn %s: %v", name, err)
	}
	p := &proc{name: name, cmd: cmd}
	t.Cleanup(func() { p.kill() })
	return p
}

func (p *proc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		_, _ = p.cmd.Process.Wait()
	}
}

func waitCond(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// metric scrapes one gauge/counter value from a node's /metrics endpoint;
// -1 means unreachable or absent.
func metric(httpAddr, name string) float64 {
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.e+-]+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		return -1
	}
	return v
}

func TestWireClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildDuetd(t)

	// The tap impersonates a fourth host: the test owns its UDP socket and
	// reads the SMux's forwarded frame straight off the wire.
	tap, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()

	smuxData, smuxHTTP := freeUDP(t), freeTCP(t)
	hostHTTP := freeTCP(t)
	spec := wire.ClusterSpec{
		Nodes: []wire.NodeSpec{
			{Name: "ctl", Role: wire.RoleController, Control: freeTCP(t), HTTP: freeTCP(t)},
			{Name: "smux-1", Role: wire.RoleSMux, Self: "20.0.0.1", Data: smuxData, Control: freeTCP(t), HTTP: smuxHTTP},
			{Name: "host-1", Role: wire.RoleHostAgent, Self: "100.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: hostHTTP},
			{Name: "tap", Role: wire.RoleHostAgent, Self: "100.0.0.2", Data: tap.LocalAddr().String(), Control: freeTCP(t)},
		},
		VIPs: []wire.VIPSpec{
			{Addr: "10.0.0.1", Backends: []wire.BackendSpec{{Addr: "100.0.0.1"}}},
			{Addr: "10.0.0.2", Backends: []wire.BackendSpec{{Addr: "100.0.0.2"}}},
		},
		ResyncMillis: 200,
		ScrapeMillis: 100,
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
	sm := spawn(t, bin, specPath, "smux-1")
	spawn(t, bin, specPath, "host-1")

	waitCond(t, "smux programmed with both VIPs", 15*time.Second, func() bool {
		return metric(smuxHTTP, "duet_wire_vips") >= 2
	})
	waitCond(t, "host programmed with its DIP", 15*time.Second, func() bool {
		return metric(hostHTTP, "duet_wire_dips") >= 1
	})

	// --- flood delivery over real UDP --------------------------------
	client, err := net.Dial("udp", smuxData)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	flood := func(n int, seqBase uint32) {
		for i := 0; i < n; i++ {
			seq := seqBase + uint32(i)
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
	}
	flood(500, 0)
	waitCond(t, "flood delivered end to end", 15*time.Second, func() bool {
		return metric(hostHTTP, "duet_wire_delivered") >= 400 // UDP: most, not all
	})

	// --- byte-identical encap via the tap ----------------------------
	tapSyn := packet.BuildTCP(packet.FiveTuple{
		Src: packet.MustParseAddr("30.9.9.9"), Dst: packet.MustParseAddr("10.0.0.2"),
		SrcPort: 41000, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)
	if _, err := client.Write(wire.AppendFrame(nil, tapSyn)); err != nil {
		t.Fatal(err)
	}
	want, err := packet.Encapsulate(nil, packet.MustParseAddr("20.0.0.1"), packet.MustParseAddr("100.0.0.2"), tapSyn, 64)
	if err != nil {
		t.Fatal(err)
	}
	_ = tap.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 4096)
	n, _, err := tap.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("tap read: %v", err)
	}
	got, err := wire.DecodeFrame(buf[:n])
	if err != nil {
		t.Fatalf("tap frame: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("wire encap differs from in-process encap:\n got %x\nwant %x", got, want)
	}

	// --- Fig-12: kill the SMux process, restart blank, traffic heals --
	deliveredBefore := metric(hostHTTP, "duet_wire_delivered")
	sm.kill()
	time.Sleep(200 * time.Millisecond) // let the port close

	sm2 := spawn(t, bin, specPath, "smux-1")
	defer sm2.kill()
	waitCond(t, "restarted smux reprogrammed by anti-entropy", 20*time.Second, func() bool {
		return metric(smuxHTTP, "duet_wire_vips") >= 2
	})
	flood(500, 1_000_000)
	waitCond(t, "delivery through the restarted smux", 15*time.Second, func() bool {
		return metric(hostHTTP, "duet_wire_delivered") >= deliveredBefore+400
	})

	// --- wire-drops watchdog: garbage flood → /alerts + /healthz 503 --
	garbage := wire.AppendFrame(nil, []byte("not an ipv4 packet"))
	garbage[0] ^= 0xff // bad magic
	alertDeadline := time.Now().Add(20 * time.Second)
	firing := false
	for !firing && time.Now().Before(alertDeadline) {
		for i := 0; i < 100; i++ {
			_, _ = client.Write(garbage)
		}
		resp, err := http.Get("http://" + smuxHTTP + "/alerts")
		if err == nil {
			var alerts []struct {
				Rule   string `json:"rule"`
				Firing bool   `json:"firing"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&alerts)
			resp.Body.Close()
			for _, a := range alerts {
				if a.Rule == "wire-drops" && a.Firing {
					firing = true
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !firing {
		t.Fatal("wire-drops watchdog never fired under garbage flood")
	}
	resp, err := http.Get("http://" + smuxHTTP + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d while wire-drops firing, want 503", resp.StatusCode)
	}
	fmt.Println("integration: delivery, byte-identical encap, restart heal, wire-drops alert all verified")
}
