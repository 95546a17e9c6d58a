package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"duet/internal/telemetry"
)

// The control channel is a length-prefixed TCP protocol: every message is a
// uint32 big-endian length followed by one binary Envelope (see appendMsg
// for the layout), whose delta bytes ride raw at the end. The length prefix
// gives clean framing and an obvious place to reject garbage, and the
// format-version byte that opens the body lets a mismatched peer be refused
// instead of misread. Every request is acknowledged with one MsgAck echoing
// its Seq, and requests are idempotent by construction — a push without a
// delta repeats harmlessly, and a push with one carries its from-epoch
// precondition — so the client can blindly retry across reconnects without
// a dedupe layer. Configuration reaches a node only as epoch deltas
// (MsgDeltaPush, internal/delta); the full-state snapshot push is the
// recovery path for a peer behind the leader's compaction horizon.

// MsgType enumerates control messages.
type MsgType uint8

// The values travel on the wire and are never reused: 2–4, 8, 10 and 11 were
// the imperative per-VIP messages that delta replication retired, 6 and 7
// the switch agent's announce-vip/withdraw-vip route side effects, which
// changed nothing a controller acted on, 5 a host agent's health report,
// which a controller only counted, 13 a second ack no receiver told apart
// from MsgAck, and 15 a leader heartbeat, which is a push without a delta.
const (
	// MsgHello introduces a peer after connect (informational).
	MsgHello MsgType = 1
	// MsgAck acknowledges any request, echoing its Seq. On a delta-protocol
	// request it also carries the follower's applied (or log-head) epoch and
	// highest seen term — even on a rejection, so a gap tells the leader
	// exactly where to resume.
	MsgAck MsgType = 9
	// MsgDeltaPush ships one encoded epoch delta (internal/delta) from the
	// leading controller to a peer: Delta carries the bytes, Epoch the
	// delta's target epoch, Term the leader's term. A push without a Delta
	// changes no config: it probes the peer, the ack's Epoch telling the
	// leader what to ship, and renews the leader's lease on a standby.
	MsgDeltaPush MsgType = 12
	// MsgSnapshotRequest asks a controller for its full config as a snapshot
	// delta; the ack carries it in Delta (recovery + operator inspection).
	MsgSnapshotRequest MsgType = 14
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgAck:
		return "ack"
	case MsgDeltaPush:
		return "delta-push"
	case MsgSnapshotRequest:
		return "snapshot-request"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Envelope is one control message. Seq correlates acks with requests.
type Envelope struct {
	Type MsgType
	Seq  uint64

	Name string // the sender on MsgHello; the leader's name on delta-protocol messages
	Err  string // MsgAck: empty = success

	// Delta-protocol fields (MsgDeltaPush, MsgSnapshotRequest and their
	// acks). Epoch is the config epoch the message is about; on acks it is
	// the peer's applied epoch. Term is the sender's leadership term; a
	// receiver that has seen a higher term rejects the message so a deposed
	// leader steps down. Delta carries one encoded internal/delta diff or
	// snapshot.
	Epoch uint64
	Term  uint64
	Delta []byte
}

const (
	// maxControlMsg bounds one control message body (1 MiB — a VIP with
	// thousands of backends fits with room to spare).
	maxControlMsg = 1 << 20
	// controlVersion opens every body; a peer speaking another version is
	// refused, never misread. Version 2 dropped version 1's route-prefix
	// string, and version 3 version 2's role string and health list.
	controlVersion = 3
	// fixedLen is the body's fixed-width head: version, type, seq, epoch,
	// term.
	fixedLen = 2 + 3*8
)

// errBadMsg marks a control message that arrived whole but does not decode;
// the server counts it under wire.control.rx_errors and drops the peer.
var errBadMsg = errors.New("wire: malformed control message")

// appendMsg appends env as one length-prefixed message to buf:
//
//	uint32 length of the rest (big-endian)
//	u8 controlVersion, u8 Type
//	u64 Seq, u64 Epoch, u64 Term (big-endian)
//	uvarint-length Name, Err
//	the raw Delta bytes, to the end of the message
//
// A decoded message re-encodes to the same bytes: lengths are minimal
// uvarints, and decodeMsg refuses anything else.
func appendMsg(buf []byte, env *Envelope) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, controlVersion, byte(env.Type))
	buf = binary.BigEndian.AppendUint64(buf, env.Seq)
	buf = binary.BigEndian.AppendUint64(buf, env.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, env.Term)
	for _, s := range [...]string{env.Name, env.Err} {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = append(buf, env.Delta...)
	n := len(buf) - start - 4
	if n > maxControlMsg {
		return buf[:start], fmt.Errorf("wire: control message too large: %d", n)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// writeMsg writes env as one message in one Write, encoding into *buf (kept
// for the next call).
func writeMsg(w io.Writer, buf *[]byte, env *Envelope) error {
	b, err := appendMsg((*buf)[:0], env)
	*buf = b
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readMsg reads one message into *buf, grown as needed and kept for the
// next call, and decodes it into env. env.Delta aliases *buf: it is valid
// until the next read, and a holder that keeps the bytes copies them. No
// byte past the declared length is read.
func readMsg(r io.Reader, buf *[]byte, env *Envelope) error {
	b := *buf
	if cap(b) < 4 {
		b = make([]byte, 4, 512)
		*buf = b
	}
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(b[:4])
	if n > maxControlMsg {
		return fmt.Errorf("%w: length %d exceeds limit", errBadMsg, n)
	}
	if cap(b) < int(n) {
		b = make([]byte, n)
		*buf = b
	}
	b = b[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	return decodeMsg(b, env)
}

// decodeMsg parses one message body (appendMsg's layout, length prefix
// stripped) into env.
func decodeMsg(b []byte, env *Envelope) error {
	if len(b) < fixedLen {
		return fmt.Errorf("%w: %d-byte body", errBadMsg, len(b))
	}
	if b[0] != controlVersion {
		return fmt.Errorf("%w: version %d, want %d", errBadMsg, b[0], controlVersion)
	}
	*env = Envelope{
		Type:  MsgType(b[1]),
		Seq:   binary.BigEndian.Uint64(b[2:]),
		Epoch: binary.BigEndian.Uint64(b[10:]),
		Term:  binary.BigEndian.Uint64(b[18:]),
	}
	rest := b[fixedLen:]
	for _, s := range [...]*string{&env.Name, &env.Err} {
		n, k := uvarint(rest)
		if k == 0 || n > uint64(len(rest)-k) {
			return fmt.Errorf("%w: bad string length", errBadMsg)
		}
		if n > 0 {
			*s = string(rest[k : k+int(n)])
		}
		rest = rest[k+int(n):]
	}
	if len(rest) > 0 {
		env.Delta = rest
	}
	return nil
}

// uvarint reads a minimal-width uvarint and returns its width, or 0 for a
// truncated, overlong or non-minimal one.
func uvarint(b []byte) (uint64, int) {
	v, k := binary.Uvarint(b)
	if k <= 0 || k > 1 && b[k-1] == 0 {
		return 0, 0
	}
	return v, k
}

// ControlHandler processes one inbound request and returns the error to
// carry on the ack (nil = success). ack arrives pre-filled as a MsgAck
// echoing the request's Seq; the handler may enrich it (set Epoch, Term,
// Name, Delta) — even on error, so a rejection can still tell the caller
// where the peer stands. env.Delta aliases the
// connection's read buffer and is valid only during the call: a handler
// that keeps the bytes copies them. Handlers run on per-connection
// goroutines and must be safe for concurrent calls.
type ControlHandler func(env *Envelope, ack *Envelope) error

// ControlServer accepts control connections and dispatches requests to a
// handler, acking each one.
type ControlServer struct {
	ln        net.Listener
	handler   ControlHandler
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	rx, rxErrors telemetry.CounterShard
}

// ListenControl starts a control server on addr (host:port; port 0 picks a
// free port).
func ListenControl(addr string, reg *telemetry.Registry, h ControlHandler) (*ControlServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: control listen %s: %w", addr, err)
	}
	s := &ControlServer{
		ln:       ln,
		handler:  h,
		closed:   make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		rx:       reg.Counter("wire.control.rx").Shard(),
		rxErrors: reg.Counter("wire.control.rx_errors").Shard(),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *ControlServer) Addr() string { return s.ln.Addr().String() }

func (s *ControlServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *ControlServer) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *ControlServer) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

func (s *ControlServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if !s.track(conn) {
		return // lost the race with Close
	}
	defer s.untrack(conn)
	r := bufio.NewReader(conn)
	var rbuf, wbuf []byte
	var env, ack Envelope
	for {
		if err := readMsg(r, &rbuf, &env); err != nil {
			if errors.Is(err, errBadMsg) {
				s.rxErrors.Inc()
			}
			return // peer gone or garbage; either way the conn is done
		}
		s.rx.Inc()
		if env.Type == MsgAck {
			continue // stray acks are ignored, not re-acked
		}
		ack = Envelope{Type: MsgAck, Seq: env.Seq}
		if err := s.handler(&env, &ack); err != nil {
			s.rxErrors.Inc()
			ack.Err = err.Error()
		}
		ack.Seq = env.Seq // the handler must not reroute the ack
		if err := writeMsg(conn, &wbuf, &ack); err != nil {
			return
		}
	}
}

// Close stops accepting, closes the listener and every accepted
// connection, and waits for the connection goroutines. Closing accepted
// connections matters for restart semantics: a "dead" server must not keep
// answering clients over surviving connections, or peers never notice the
// restart.
func (s *ControlServer) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		_ = s.ln.Close()
		s.connMu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
}

// ControlClient is a client for one peer's control server. Calls serialize
// on an internal lock (control traffic is low-rate); the connection is
// (re)dialed lazily, so the call after a peer restart reconnects.
type ControlClient struct {
	addr    string
	timeout time.Duration

	mu         sync.Mutex
	conn       net.Conn
	r          *bufio.Reader
	rbuf, wbuf []byte // one message each way, kept across calls
	seq        uint64

	calls, callErrors, reconnects telemetry.CounterShard
}

// DialControl creates a client for the control server at addr. No
// connection is made until the first call.
func DialControl(addr string, reg *telemetry.Registry) *ControlClient {
	return &ControlClient{
		addr:       addr,
		timeout:    5 * time.Second,
		calls:      reg.Counter("wire.control.calls").Shard(),
		callErrors: reg.Counter("wire.control.call_errors").Shard(),
		reconnects: reg.Counter("wire.control.reconnects").Shard(),
	}
}

// CallE sends one request and returns its ack. A transport failure closes
// the connection (the next call redials) and returns a nil ack. A handler's
// rejection returns a RejectedError without closing, and the ack beside it:
// a gap rejection carries the peer's applied epoch. The caller owns the
// ack, its Delta included.
func (c *ControlClient) CallE(env *Envelope) (*Envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls.Inc()
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			c.callErrors.Inc()
			return nil, err
		}
		c.conn = conn
		c.r = bufio.NewReader(conn)
		c.reconnects.Inc()
	}
	c.seq++
	env.Seq = c.seq
	deadline := time.Now().Add(c.timeout) //duet:allow noclock net.Conn deadlines need absolute wall time
	_ = c.conn.SetDeadline(deadline)
	if err := writeMsg(c.conn, &c.wbuf, env); err != nil {
		c.dropConnLocked()
		return nil, err
	}
	var ack Envelope
	for {
		if err := readMsg(c.r, &c.rbuf, &ack); err != nil {
			c.dropConnLocked()
			return nil, err
		}
		if ack.Type == MsgAck && ack.Seq == env.Seq {
			break
		}
		// An ack for an older (timed-out) request; keep reading.
	}
	if ack.Delta != nil {
		ack.Delta = bytes.Clone(ack.Delta) // off the read buffer the next call reuses
	}
	if ack.Err != "" {
		return &ack, &RejectedError{Peer: c.addr, Type: env.Type, Reason: ack.Err}
	}
	return &ack, nil
}

// RejectedError is a handler rejection: the peer received the request and
// answered with an error. Distinguished from transport failures so retry
// loops do not spin on semantic errors.
type RejectedError struct {
	Peer   string
	Type   MsgType
	Reason string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("wire: %s rejected %s: %s", e.Peer, e.Type, e.Reason)
}

func (c *ControlClient) dropConnLocked() {
	c.callErrors.Inc()
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.r = nil
	}
}

// Close tears the connection down; a later call redials.
func (c *ControlClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.r = nil
	}
}
