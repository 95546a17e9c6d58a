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

	"duet/internal/telemetry"
)

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
		{Type: MsgHello, Seq: 1, Name: "smux-1"},
		{Type: MsgAck, Seq: 6},
		{Type: MsgAck, Seq: 7, Err: "wire: epoch gap: delta from 3, applied 1"},
		{Type: MsgDeltaPush, Seq: 8, Name: "ctl-1", Term: 2, Epoch: 9},
		{Type: MsgDeltaPush, Seq: 9, Name: "ctl-1", Term: 2, Epoch: 10, Delta: deltaBytes(9 << 10)},
		{Type: MsgDeltaPush, Seq: 10, Name: "ctl-1", Term: 2, Epoch: 11, Delta: deltaBytes(900 << 10)},
		{Type: MsgAck, Seq: 11, Term: 3, Epoch: 12, Err: "stale"},
		{Type: MsgAck, Seq: 12, Name: "ctl-2", Term: 3, Epoch: 12, Delta: deltaBytes(9 << 10)},
		{Type: MsgSnapshotRequest, Seq: 13, Name: "duetctl"},
		{Type: MsgDeltaPush, Seq: ^uint64(0), Name: "ctl-1", Term: ^uint64(0), Epoch: ^uint64(0)},
		{Type: 6, Seq: 14, Name: "sw-1"},   // a retired number still travels, to be rejected by name
		{Type: 15, Seq: 15, Name: "ctl-1"}, // the retired leader heartbeat
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

// legacyMsg is a length-prefixed message in a retired format version: the
// fixed head, the given strings, then tail.
func legacyMsg(version, typ byte, strs []string, tail ...byte) []byte {
	body := append([]byte{version, typ}, make([]byte, 24)...) // version, type, seq, epoch, term
	for _, s := range strs {
		body = binary.AppendUvarint(body, uint64(len(s)))
		body = append(body, s...)
	}
	body = append(body, tail...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// v1Body is a version-1 message: the retired announce-vip, whose route
// prefix sat where later versions have Err. Read as version 3 it would be an
// ack carrying a rejection.
func v1Body() []byte {
	return legacyMsg(1, 6, []string{"sw-1", "", "10.0.0.1/32", ""}, 0) // no health pairs
}

// v2Body is a version-2 hello: a role string between the name and Err, and
// an empty health list. Read as version 3 the role would be its Err — a
// request that carries a rejection.
func v2Body() []byte {
	return legacyMsg(2, byte(MsgHello), []string{"smux-1", RoleSMux, ""}, 0) // no health pairs
}

// TestControlVersionMismatch: a message in another format version — the
// next one, version 2, which carried a role and a health list, or version
// 1, which carried a route prefix — is one rx_error and a closed
// connection, never a misread request.
func TestControlVersionMismatch(t *testing.T) {
	reg := telemetry.NewRegistry()
	var handled atomic.Int32
	srv, err := ListenControl("127.0.0.1:0", reg, func(_, _ *Envelope) error { handled.Add(1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	next, err := appendMsg(nil, &Envelope{Type: MsgHello, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	next[4] = controlVersion + 1
	for i, msg := range [][]byte{next, v2Body(), v1Body()} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 64)); err == nil {
			t.Fatalf("server answered %d bytes to version %d", n, msg[4])
		}
		waitFor(t, "rx_errors counted", func() bool { return reg.Counter("wire.control.rx_errors").Value() == uint64(i+1) })
		if handled.Load() != 0 || reg.Counter("wire.control.rx").Value() != 0 {
			t.Fatalf("a version-%d message reached the handler (%d) or counted as rx", msg[4], handled.Load())
		}

		var rbuf []byte
		var env Envelope
		if err := readMsg(bytes.NewReader(msg), &rbuf, &env); !errors.Is(err, errBadMsg) {
			t.Fatalf("readMsg of version %d: %v, want errBadMsg", msg[4], err)
		}
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
