package wire

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"duet/internal/packet"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// --- framing -----------------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("a raw ipv4 packet goes here")
	frame := AppendFrame(nil, payload)
	if len(frame) != FrameHeaderLen+len(payload) {
		t.Fatalf("frame length %d, want %d", len(frame), FrameHeaderLen+len(payload))
	}
	got, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

func TestFrameAppendsToDst(t *testing.T) {
	dst := []byte("prefix")
	frame := AppendFrame(dst, []byte("x"))
	if string(frame[:6]) != "prefix" {
		t.Fatalf("AppendFrame clobbered dst: %q", frame)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	good := AppendFrame(nil, []byte("payload"))

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"short header", good[:FrameHeaderLen-1], ErrShortFrame},
		{"truncated payload", good[:len(good)-1], ErrShortFrame},
		{"bad magic", func() []byte { f := AppendFrame(nil, []byte("p")); f[0] ^= 0xff; return f }(), ErrBadFrame},
		{"bad version", func() []byte { f := AppendFrame(nil, []byte("p")); f[2] = 99; return f }(), ErrBadFrame},
		{"bad kind", func() []byte { f := AppendFrame(nil, []byte("p")); f[3] = 99; return f }(), ErrBadFrame},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestTracedFrameRoundTrip(t *testing.T) {
	payload := []byte("a raw ipv4 packet goes here")
	const trace = uint64(0x00000007_0000002a)
	frame := AppendTracedFrame(nil, payload, trace)
	if len(frame) != FrameHeaderLen+TraceExtLen+len(payload) {
		t.Fatalf("frame length %d, want %d", len(frame), FrameHeaderLen+TraceExtLen+len(payload))
	}
	got, gotTrace, err := DecodeFrameTrace(frame)
	if err != nil {
		t.Fatalf("DecodeFrameTrace: %v", err)
	}
	if gotTrace != trace {
		t.Fatalf("trace = %#x, want %#x", gotTrace, trace)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	// The plain decoder must still accept traced frames (it drops the ID).
	if got, err := DecodeFrame(frame); err != nil || string(got) != string(payload) {
		t.Fatalf("DecodeFrame(traced) = %q, %v", got, err)
	}
}

func TestUntracedFrameByteIdentical(t *testing.T) {
	// trace == 0 must produce exactly the pre-trace frame format, so a
	// fleet with mixed binaries interoperates for unsampled traffic.
	payload := []byte("payload")
	old := AppendFrame(nil, payload)
	traced := AppendTracedFrame(nil, payload, 0)
	if string(old) != string(traced) {
		t.Fatalf("AppendTracedFrame(trace=0) differs from AppendFrame:\n%x\n%x", traced, old)
	}
	if _, trace, err := DecodeFrameTrace(old); err != nil || trace != 0 {
		t.Fatalf("DecodeFrameTrace(untraced) = trace %#x, %v", trace, err)
	}
}

func TestDecodeFrameTraceErrors(t *testing.T) {
	traced := AppendTracedFrame(nil, []byte("payload"), 0xbeef)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"flag set, no extension", traced[:FrameHeaderLen], ErrShortFrame},
		{"flag set, truncated extension", traced[:FrameHeaderLen+TraceExtLen-1], ErrShortFrame},
		{"truncated payload", traced[:len(traced)-1], ErrShortFrame},
		{"bad kind under flag", func() []byte {
			f := AppendTracedFrame(nil, []byte("p"), 1)
			f[3] = frameFlagTrace | 99
			return f
		}(), ErrBadFrame},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrameTrace(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// --- control channel ---------------------------------------------------

func TestControlCallAndReject(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := ListenControl("127.0.0.1:0", reg, func(env, _ *Envelope) error {
		if env.Type == MsgSnapshotRequest {
			return errUnsupported{}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := DialControl(srv.Addr(), reg)
	defer c.Close()
	if _, err := c.CallE(&Envelope{Type: MsgHello, Name: "t"}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	_, err = c.CallE(&Envelope{Type: MsgSnapshotRequest, Name: "duetctl"})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("rejection not surfaced as RejectedError: %v", err)
	}
	if rej.Type != MsgSnapshotRequest {
		t.Fatalf("RejectedError.Type = %v", rej.Type)
	}
	// A rejection must not tear the connection down.
	if _, err := c.CallE(&Envelope{Type: MsgHello}); err != nil {
		t.Fatalf("Call after rejection: %v", err)
	}
	if got := reg.Counter("wire.control.rx").Value(); got != 3 {
		t.Fatalf("server rx = %d, want 3", got)
	}
}

type errUnsupported struct{}

func (errUnsupported) Error() string { return "nope" }

// TestControlClientSurvivesRestart is the control-plane half of the Fig-12
// story: the server dies mid-conversation, restarts on the same port, and
// the next Call redials.
func TestControlClientSurvivesRestart(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := ListenControl("127.0.0.1:0", reg, func(_, _ *Envelope) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	c := DialControl(addr, reg)
	defer c.Close()
	if _, err := c.CallE(&Envelope{Type: MsgHello}); err != nil {
		t.Fatalf("first Call: %v", err)
	}

	srv.Close()
	time.Sleep(10 * time.Millisecond)
	if _, err := c.CallE(&Envelope{Type: MsgHello}); err == nil {
		t.Fatal("Call succeeded against a dead server")
	}

	// Restart on the same port and retry through.
	srv2, err := ListenControl(addr, reg, func(_, _ *Envelope) error { return nil })
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := c.CallE(&Envelope{Type: MsgHello}); err != nil {
		t.Fatalf("Call after restart: %v", err)
	}
	if reg.Counter("wire.control.reconnects").Value() < 2 {
		t.Fatalf("reconnects = %d, want >= 2", reg.Counter("wire.control.reconnects").Value())
	}
}

// --- dataplane ---------------------------------------------------------

func TestDataplaneDeliverAndDrops(t *testing.T) {
	reg := telemetry.NewRegistry()
	dp, err := ListenDataplane("127.0.0.1:0", DataplaneConfig{Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()

	got := make(chan []byte, 16)
	dp.Serve(func(payload, scratch []byte, _ uint64) []byte {
		cp := append([]byte(nil), payload...) // payload is pooled; copy out
		got <- cp
		return scratch
	})

	sender, err := ListenDataplane("127.0.0.1:0", DataplaneConfig{Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	ep := dp.Addr().String()
	if err := sender.Send(ep, []byte("hello wire")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case p := <-got:
		if string(p) != "hello wire" {
			t.Fatalf("payload %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame not delivered")
	}

	// Garbage datagrams: bad magic and a truncated frame.
	raw, err := net.Dial("udp", ep)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bad := AppendFrame(nil, []byte("x"))
	bad[0] ^= 0xff
	if _, err := raw.Write(bad); err != nil {
		t.Fatal(err)
	}
	short := AppendFrame(nil, []byte("full payload"))
	if _, err := raw.Write(short[:FrameHeaderLen+2]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		badFrames := reg.Counter("wire.drops.bad_frame").Value()
		shortReads := reg.Counter("wire.drops.short_read").Value()
		total := reg.Counter("wire.drops.total").Value()
		if badFrames == 1 && shortReads == 1 && total == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drop counters bad=%d short=%d total=%d, want 1/1/2", badFrames, shortReads, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := reg.Counter("wire.rx.frames").Value(); v != 3 {
		t.Fatalf("rx.frames = %d, want 3", v)
	}
}

func TestDataplaneSendRefused(t *testing.T) {
	reg := telemetry.NewRegistry()
	dp, err := ListenDataplane("127.0.0.1:0", DataplaneConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()

	// Reserve a port, then close it so nothing listens there.
	tmp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := tmp.LocalAddr().String()
	tmp.Close()

	// On loopback the ICMP port-unreachable from send N surfaces as
	// ECONNREFUSED on send N+1; a few sends guarantee the signal.
	var sawErr bool
	for i := 0; i < 5; i++ {
		if err := dp.Send(dead, []byte("into the void")); err != nil {
			sawErr = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawErr {
		t.Skip("no ECONNREFUSED on this loopback; kernel swallowed the ICMP")
	}
	if v := reg.Counter("wire.drops.conn_refused").Value(); v == 0 {
		t.Fatal("conn_refused drop not counted")
	}
}

func TestDataplaneMTUGuard(t *testing.T) {
	dp, err := ListenDataplane("127.0.0.1:0", DataplaneConfig{MTU: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := dp.Send("127.0.0.1:9", make([]byte, 200)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// --- spec --------------------------------------------------------------

func TestSpecValidate(t *testing.T) {
	good := ClusterSpec{
		Nodes: []NodeSpec{
			{Name: "ctl", Role: RoleController, Control: "127.0.0.1:7000"},
			{Name: "smux-1", Role: RoleSMux, Self: "20.0.0.1", Data: "127.0.0.1:7001", Control: "127.0.0.1:7002"},
			{Name: "host-1", Role: RoleHostAgent, Self: "100.0.0.1", Data: "127.0.0.1:7003", Control: "127.0.0.1:7004"},
		},
		VIPs: []VIPSpec{{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.1"}}}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	hm := good.HostMap()
	if hm[packet.MustParseAddr("100.0.0.1")] != "127.0.0.1:7003" {
		t.Fatalf("HostMap: %v", hm)
	}

	breakIt := func(mut func(*ClusterSpec)) error {
		s := good
		s.Nodes = append([]NodeSpec(nil), good.Nodes...)
		s.VIPs = append([]VIPSpec(nil), good.VIPs...)
		mut(&s)
		return s.Validate()
	}
	if breakIt(func(s *ClusterSpec) { s.Nodes[2].Name = "ctl" }) == nil {
		t.Error("duplicate name accepted")
	}
	if breakIt(func(s *ClusterSpec) { s.Nodes[2].Self = "20.0.0.1" }) == nil {
		t.Error("duplicate self accepted")
	}
	if breakIt(func(s *ClusterSpec) { s.Nodes[1].Data = "" }) == nil {
		t.Error("dataplane role without data endpoint accepted")
	}
	if breakIt(func(s *ClusterSpec) { s.Nodes[1].Role = "hmux" }) == nil {
		t.Error("unknown role accepted")
	}
	if breakIt(func(s *ClusterSpec) { s.VIPs[0].Backends = nil }) == nil {
		t.Error("backendless VIP accepted")
	}
	if breakIt(func(s *ClusterSpec) { s.VIPs[0].Addr = "not-an-ip" }) == nil {
		t.Error("unparseable VIP accepted")
	}
	if breakIt(func(s *ClusterSpec) { s.VIPs[0].Mode = "sticky" }) == nil {
		t.Error("unknown steer mode accepted")
	}
	if breakIt(func(s *ClusterSpec) {
		s.VIPs[0].Backends = []BackendSpec{{Addr: "100.0.0.1"}, {Addr: "0.0.0.0"}}
	}) == nil {
		t.Error("backend at the zero address accepted")
	}
}

// TestSpecRefusesDuplicateVIP: a VIP listed twice is refused when the spec
// loads, and a controller started on it fails rather than leading a log that
// never holds the spec's config.
func TestSpecRefusesDuplicateVIP(t *testing.T) {
	spec := testClusterSpec(t)
	spec.VIPs = append(spec.VIPs, VIPSpec{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.2"}}})
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate VIP") {
		t.Fatalf("Validate: %v, want a duplicate-VIP refusal", err)
	}
	if n, err := StartNode(spec, "ctl"); err == nil {
		n.Close()
		t.Fatal("a controller started on a spec that lists a VIP twice")
	}
}

// TestSpecRefusesDuplicateBackend: a backend listed twice in one VIP is
// refused when the spec loads — every peer's delta decoder would refuse the
// bootstrap delta that carries it — and a controller started on it fails.
func TestSpecRefusesDuplicateBackend(t *testing.T) {
	spec := testClusterSpec(t)
	spec.VIPs[0].Backends = append(spec.VIPs[0].Backends, BackendSpec{Addr: "100.0.0.1", Weight: 2})
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("Validate: %v, want a duplicate-backend refusal", err)
	}
	if n, err := StartNode(spec, "ctl"); err == nil {
		n.Close()
		t.Fatal("a controller started on a spec that lists a backend twice in one VIP")
	}
}

// --- in-process cluster ------------------------------------------------

// freeTCP reserves a loopback TCP port and returns it as host:port.
func freeTCP(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// freeUDP reserves a loopback UDP port and returns it as host:port.
func freeUDP(t testing.TB) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	return addr
}

func testClusterSpec(t testing.TB) *ClusterSpec {
	return &ClusterSpec{
		Nodes: []NodeSpec{
			{Name: "ctl", Role: RoleController, Control: freeTCP(t), HTTP: freeTCP(t)},
			{Name: "smux-1", Role: RoleSMux, Self: "20.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: freeTCP(t)},
			{Name: "host-1", Role: RoleHostAgent, Self: "100.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: freeTCP(t)},
		},
		VIPs:         []VIPSpec{{Addr: "10.0.0.1", Backends: []BackendSpec{{Addr: "100.0.0.1"}}}},
		ResyncMillis: 100,
		ScrapeMillis: 50,
	}
}

// Delivered returns the host-agent node's end-to-end delivery count.
func (n *Node) Delivered() uint64 { return n.Reg.Counter("wire.delivered").Value() }

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNodeClusterDelivers wires a controller, an SMux and a host agent
// in-process over real loopback sockets and pushes one packet end to end:
// client SYN → SMux encap → wire → host agent decap → delivery. It also
// checks the wire bytes: the frame the SMux forwards must be exactly the
// encap the in-process path would produce.
func TestNodeClusterDelivers(t *testing.T) {
	spec := testClusterSpec(t)
	// A "tap" host the test itself impersonates: the controller never
	// reaches its control port (retries harmlessly), but the SMux forwards
	// VIP 10.0.0.2 traffic to its data socket, where the test can read the
	// raw frame off the wire.
	tap, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	spec.Nodes = append(spec.Nodes, NodeSpec{
		Name: "tap", Role: RoleHostAgent, Self: "100.0.0.2",
		Data: tap.LocalAddr().String(), Control: freeTCP(t),
	})
	spec.VIPs = append(spec.VIPs, VIPSpec{Addr: "10.0.0.2", Backends: []BackendSpec{{Addr: "100.0.0.2"}}})

	var nodes []*Node
	for _, name := range []string{"ctl", "smux-1", "host-1"} {
		n, err := StartNode(spec, name)
		if err != nil {
			t.Fatalf("StartNode %s: %v", name, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	sm, host := nodes[1], nodes[2]

	waitFor(t, "smux programmed", func() bool { return sm.Reg.Gauge("wire.vips").Value() >= 2 })
	waitFor(t, "host programmed", func() bool { return host.Reg.Gauge("wire.dips").Value() >= 1 })

	syn := packet.BuildTCP(packet.FiveTuple{
		Src: packet.MustParseAddr("30.0.0.1"), Dst: packet.MustParseAddr("10.0.0.1"),
		SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)

	client, err := net.Dial("udp", spec.Nodes[1].Data)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write(AppendFrame(nil, syn)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return host.Delivered() >= 1 })

	// Byte-identical encap via the tap: single-backend VIP, so the encap is
	// deterministic.
	tapSyn := packet.BuildTCP(packet.FiveTuple{
		Src: packet.MustParseAddr("30.0.0.1"), Dst: packet.MustParseAddr("10.0.0.2"),
		SrcPort: 40001, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)
	if _, err := client.Write(AppendFrame(nil, tapSyn)); err != nil {
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
	got, err := DecodeFrame(buf[:n])
	if err != nil {
		t.Fatalf("tap frame: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("wire encap differs from in-process encap:\n got %x\nwant %x", got, want)
	}
}

// TestNodeSMuxRestartHeals kills the SMux node and starts a fresh (blank)
// one on the same ports: the controller's anti-entropy push must reprogram
// it and traffic must flow again — the in-process version of the Fig-12
// process-failover test.
func TestNodeSMuxRestartHeals(t *testing.T) {
	spec := testClusterSpec(t)
	var ctl, sm, host *Node
	var err error
	if ctl, err = StartNode(spec, "ctl"); err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if sm, err = StartNode(spec, "smux-1"); err != nil {
		t.Fatal(err)
	}
	if host, err = StartNode(spec, "host-1"); err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	waitFor(t, "smux programmed", func() bool { return sm.Reg.Gauge("wire.vips").Value() >= 1 })

	sm.Close()
	sm2, err := StartNode(spec, "smux-1") // same ports, blank tables
	if err != nil {
		t.Fatalf("restart smux: %v", err)
	}
	defer sm2.Close()
	waitFor(t, "smux reprogrammed after restart", func() bool {
		return sm2.Reg.Gauge("wire.vips").Value() >= 1
	})

	syn := packet.BuildTCP(packet.FiveTuple{
		Src: packet.MustParseAddr("30.0.0.9"), Dst: packet.MustParseAddr("10.0.0.1"),
		SrcPort: 40002, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, nil)
	client, err := net.Dial("udp", spec.Nodes[1].Data)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write(AppendFrame(nil, syn)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery through restarted smux", func() bool { return host.Delivered() >= 1 })
}

// TestNodeModePropagatesAndHeals checks the control plane carries per-VIP
// steer modes: the spec's "hybrid" VIP arrives at the mux in hybrid mode,
// and a restarted (blank) mux re-learns the mode from anti-entropy alone.
func TestNodeModePropagatesAndHeals(t *testing.T) {
	spec := testClusterSpec(t)
	spec.VIPs[0].Mode = "hybrid"

	ctl, err := StartNode(spec, "ctl")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	sm, err := StartNode(spec, "smux-1")
	if err != nil {
		t.Fatal(err)
	}

	vip := packet.MustParseAddr("10.0.0.1")
	waitFor(t, "hybrid mode programmed", func() bool {
		m, ok := sm.pair.SMux.ModeOf(vip)
		return ok && m == steer.ModeHybrid
	})

	sm.Close()
	sm2, err := StartNode(spec, "smux-1") // same ports, blank tables
	if err != nil {
		t.Fatalf("restart smux: %v", err)
	}
	defer sm2.Close()
	waitFor(t, "hybrid mode re-healed after restart", func() bool {
		m, ok := sm2.pair.SMux.ModeOf(vip)
		return ok && m == steer.ModeHybrid
	})
}

// TestNodeResyncSuppressionKeepsEpochStable is the receiver side of the
// anti-entropy design: once a node has applied the head epoch, resync is a
// heartbeat probe that ships nothing, so the steer epoch stays put (an
// applied update bumps the epoch, and in hybrid mode that opens a drain
// window on every resync — a liveness bug for the overlay).
func TestNodeResyncSuppressionKeepsEpochStable(t *testing.T) {
	spec := testClusterSpec(t)
	ctl, err := StartNode(spec, "ctl")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	sm, err := StartNode(spec, "smux-1")
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()

	waitFor(t, "smux programmed", func() bool { return sm.Reg.Gauge("wire.vips").Value() >= 1 })
	epoch := sm.pair.SMux.Steer().Epoch()
	applied := sm.Reg.Counter("wire.delta.applied").Value()
	resyncs := ctl.Reg.Counter("wire.controller.resyncs").Value()

	// Several anti-entropy rounds must pass as pure probes: the controller
	// keeps heartbeating, and the up-to-date smux applies nothing new.
	waitFor(t, "resync suppression", func() bool {
		return ctl.Reg.Counter("wire.controller.resyncs").Value() >= resyncs+3
	})
	if got := sm.Reg.Counter("wire.delta.applied").Value(); got != applied {
		t.Fatalf("delta applies moved %d → %d under pure anti-entropy resync", applied, got)
	}
	if got := sm.pair.SMux.Steer().Epoch(); got != epoch {
		t.Fatalf("steer epoch moved %d → %d under pure anti-entropy resync", epoch, got)
	}
}
