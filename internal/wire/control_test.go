package wire

// Tests for the binary control envelope: every message type round-trips,
// a peer speaking another format version is refused and counted, and a
// warm connection reads a delta push without allocating its body.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/packet"
	"duet/internal/telemetry"
)

func healthPairs(n int) []DIPHealth {
	if n == 0 {
		return nil
	}
	out := make([]DIPHealth, n)
	for i := range out {
		out[i] = DIPHealth{DIP: packet.Addr(0x64000000 + uint32(i)), Healthy: i%3 != 0}
	}
	return out
}

func deltaBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// roundTrip encodes env, checks the length prefix, and decodes it back
// through the reader the server and client use.
func roundTrip(t *testing.T, env *Envelope) *Envelope {
	t.Helper()
	var wbuf, rbuf []byte
	var out bytes.Buffer
	if err := writeMsg(&out, &wbuf, env); err != nil {
		t.Fatalf("write %s: %v", env.Type, err)
	}
	msg := out.Bytes()
	if n := binary.BigEndian.Uint32(msg); int(n) != len(msg)-4 {
		t.Fatalf("%s: length prefix %d, body %d", env.Type, n, len(msg)-4)
	}
	var got Envelope
	if err := readMsg(bytes.NewReader(msg), &rbuf, &got); err != nil {
		t.Fatalf("read %s: %v", env.Type, err)
	}
	again, err := appendMsg(nil, &got)
	if err != nil || !bytes.Equal(again, msg) {
		t.Fatalf("%s: decoded envelope re-encodes differently (%v)", env.Type, err)
	}
	return &got
}

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []Envelope{
		{Type: MsgHello, Seq: 1, Role: RoleSMux, Name: "smux-1"},
		{Type: MsgHealthReport, Seq: 2, Name: "host-1"},
		{Type: MsgHealthReport, Seq: 3, Name: "host-1", Health: healthPairs(300)},
		{Type: MsgAnnounceVIP, Seq: 4, Addr: "10.0.0.1/32"},
		{Type: MsgWithdrawVIP, Seq: 5, Addr: "10.0.0.1/32"},
		{Type: MsgAck, Seq: 6},
		{Type: MsgAck, Seq: 7, Err: "wire: epoch gap: delta from 3, applied 1"},
		{Type: MsgDeltaPush, Seq: 8, Name: "ctl-1", Term: 2, Epoch: 9},
		{Type: MsgDeltaPush, Seq: 9, Name: "ctl-1", Term: 2, Epoch: 10, Delta: deltaBytes(9 << 10)},
		{Type: MsgDeltaPush, Seq: 10, Name: "ctl-1", Term: 2, Epoch: 11, Delta: deltaBytes(900 << 10)},
		{Type: MsgDeltaAck, Seq: 11, Term: 3, Epoch: 12, Err: "stale"},
		{Type: MsgDeltaAck, Seq: 12, Name: "ctl-2", Term: 3, Epoch: 12, Delta: deltaBytes(9 << 10)},
		{Type: MsgSnapshotRequest, Seq: 13, Name: "duetctl"},
		{Type: MsgLeaderHeartbeat, Seq: ^uint64(0), Name: "ctl-1", Term: ^uint64(0), Epoch: ^uint64(0)},
		{Type: 2, Seq: 14, Addr: "10.0.0.1"}, // a retired number still travels, to be rejected by name
	}
	for i := range cases {
		want := &cases[i]
		if got := roundTrip(t, want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (seq %d): round trip changed the envelope\n got %+v\nwant %+v", want.Type, want.Seq, got, want)
		}
	}
	if _, err := appendMsg(nil, &Envelope{Type: MsgDeltaPush, Delta: make([]byte, maxControlMsg)}); err == nil {
		t.Fatal("a message over maxControlMsg encoded")
	}
}

// TestControlVersionMismatch: a message in another format version is one
// rx_error and a closed connection, never a misread request.
func TestControlVersionMismatch(t *testing.T) {
	reg := telemetry.NewRegistry()
	var handled atomic.Int32
	srv, err := ListenControl("127.0.0.1:0", reg, func(_, _ *Envelope) error { handled.Add(1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg, err := appendMsg(nil, &Envelope{Type: MsgHello, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	msg[4] = controlVersion + 1
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err == nil {
		t.Fatalf("server answered %d bytes to a foreign version", n)
	}
	waitFor(t, "rx_errors counted", func() bool { return reg.Counter("wire.control.rx_errors").Value() == 1 })
	if handled.Load() != 0 || reg.Counter("wire.control.rx").Value() != 0 {
		t.Fatalf("a foreign-version message reached the handler (%d) or counted as rx", handled.Load())
	}

	var rbuf []byte
	var env Envelope
	if err := readMsg(bytes.NewReader(msg), &rbuf, &env); !errors.Is(err, errBadMsg) {
		t.Fatalf("readMsg of a foreign version: %v, want errBadMsg", err)
	}
}

// TestZeroAllocControlRead gates the server's read path: on a warm
// connection a 9 KB delta push lands in the connection's reused buffer, and
// only the header strings may allocate.
func TestZeroAllocControlRead(t *testing.T) {
	msg, err := appendMsg(nil, &Envelope{Type: MsgDeltaPush, Seq: 7, Name: "ctl-1", Term: 2, Epoch: 41, Delta: deltaBytes(9 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(msg)
	r := bufio.NewReader(src)
	var rbuf []byte
	var env Envelope
	read := func() {
		src.Reset(msg)
		r.Reset(src)
		if err := readMsg(r, &rbuf, &env); err != nil || len(env.Delta) != 9<<10 {
			t.Fatalf("read: %v (%d delta bytes)", err, len(env.Delta))
		}
	}
	read() // warm: the buffer grows once
	if allocs := testing.AllocsPerRun(200, read); allocs > 2 {
		t.Fatalf("reading a 9 KB delta push allocates %.0f times, want at most 2 (the header strings)", allocs)
	}
}
