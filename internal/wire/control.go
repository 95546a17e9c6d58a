package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"duet/internal/telemetry"
)

// The control channel is a length-prefixed TCP protocol: every message is a
// uint32 big-endian length followed by one JSON-encoded Envelope. Control
// traffic is rare and small, so JSON's debuggability wins over a binary
// encoding; the length prefix gives clean framing and an obvious place to
// reject garbage. Every request is acknowledged (MsgAck or an enriched
// MsgDeltaAck, echoing Seq), and requests are idempotent by construction —
// a heartbeat or health report repeats harmlessly, and a delta push carries
// its from-epoch precondition — so the client can blindly retry across
// reconnects without a dedupe layer. Configuration reaches a node only as
// epoch deltas (MsgDeltaPush, internal/delta); the full-state snapshot push
// is the recovery path for a peer behind the leader's compaction horizon.

// MsgType enumerates control messages.
type MsgType uint8

// The values travel on the wire and are never reused: 2–4, 8, 10 and 11 were
// the imperative per-VIP messages that delta replication retired.
const (
	// MsgHello introduces a peer after connect (role + name, informational).
	MsgHello MsgType = 1
	// MsgHealthReport carries a host agent's DIP health to the controller.
	MsgHealthReport MsgType = 5
	// MsgAnnounceVIP/MsgWithdrawVIP are routing-side effects forwarded to
	// the controller (the BGP speaker of the process world).
	MsgAnnounceVIP MsgType = 6
	MsgWithdrawVIP MsgType = 7
	// MsgAck acknowledges any request, echoing its Seq.
	MsgAck MsgType = 9
	// MsgDeltaPush ships one encoded epoch delta (internal/delta) from the
	// leading controller to a peer. Delta carries the bytes, Epoch the
	// delta's target epoch, Term the leader's term. The ack (MsgDeltaAck)
	// returns the peer's applied epoch, so a gap rejection tells the leader
	// exactly where to resume.
	MsgDeltaPush MsgType = 12
	// MsgDeltaAck is the enriched ack to a delta-protocol request: Epoch is
	// the peer's applied (or log-head) epoch, Term its highest seen term.
	MsgDeltaAck MsgType = 13
	// MsgSnapshotRequest asks a controller for its full config as a snapshot
	// delta; the ack carries it in Delta (recovery + operator inspection).
	MsgSnapshotRequest MsgType = 14
	// MsgLeaderHeartbeat renews the leader's lease on a peer and doubles as
	// an epoch probe: the ack's Epoch tells the leader how far behind the
	// peer is without shipping anything.
	MsgLeaderHeartbeat MsgType = 15
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHealthReport:
		return "health-report"
	case MsgAnnounceVIP:
		return "announce-vip"
	case MsgWithdrawVIP:
		return "withdraw-vip"
	case MsgAck:
		return "ack"
	case MsgDeltaPush:
		return "delta-push"
	case MsgDeltaAck:
		return "delta-ack"
	case MsgSnapshotRequest:
		return "snapshot-request"
	case MsgLeaderHeartbeat:
		return "leader-heartbeat"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// HealthMsg is one host agent's view of its local DIPs.
type HealthMsg struct {
	Host string          `json:"host"`
	DIPs map[string]bool `json:"dips"` // dip → healthy
}

// Envelope is one control message. Exactly one payload field matching Type
// is set; Seq correlates acks with requests.
type Envelope struct {
	Type MsgType `json:"type"`
	Seq  uint64  `json:"seq"`

	Role   string     `json:"role,omitempty"` // MsgHello
	Name   string     `json:"name,omitempty"` // MsgHello, and the leader's name on delta-protocol messages
	Addr   string     `json:"addr,omitempty"` // MsgAnnounceVIP/MsgWithdrawVIP: the prefix
	Health *HealthMsg `json:"health,omitempty"`
	Err    string     `json:"err,omitempty"` // MsgAck: empty = success

	// Delta-protocol fields (MsgDeltaPush / MsgDeltaAck / MsgSnapshotRequest
	// / MsgLeaderHeartbeat). Epoch is the config epoch the message is about;
	// on acks it is the peer's applied epoch. Term is the sender's leadership
	// term; a receiver that has seen a higher term rejects the message so a
	// deposed leader steps down. Delta carries one encoded internal/delta
	// diff or snapshot.
	Epoch uint64 `json:"epoch,omitempty"`
	Term  uint64 `json:"term,omitempty"`
	Delta []byte `json:"delta,omitempty"`
}

// maxControlMsg bounds one control message (1 MiB — a VIP with thousands of
// backends fits with room to spare).
const maxControlMsg = 1 << 20

// writeMsg writes one length-prefixed envelope.
func writeMsg(w io.Writer, env *Envelope) error {
	body, err := json.Marshal(env)
	if err != nil {
		return err
	}
	if len(body) > maxControlMsg {
		return fmt.Errorf("wire: control message too large: %d", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readMsg reads one length-prefixed envelope.
func readMsg(r io.Reader, env *Envelope) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxControlMsg {
		return fmt.Errorf("wire: control message length %d exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	*env = Envelope{}
	return json.Unmarshal(body, env)
}

// ControlHandler processes one inbound request and returns the error to
// carry on the ack (nil = success). ack arrives pre-filled as a plain
// MsgAck echoing the request's Seq; the handler may enrich it (set Epoch,
// Term, Delta, or retype it MsgDeltaAck) — even on error, so a rejection
// can still tell the caller where the peer stands. Handlers run on
// per-connection goroutines and must be safe for concurrent calls.
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
	w := bufio.NewWriter(conn)
	var env Envelope
	for {
		if err := readMsg(r, &env); err != nil {
			return // peer gone or garbage; either way the conn is done
		}
		s.rx.Inc()
		ack := Envelope{Type: MsgAck, Seq: env.Seq}
		if env.Type != MsgAck && env.Type != MsgDeltaAck { // stray acks are ignored, not re-acked
			if err := s.handler(&env, &ack); err != nil {
				s.rxErrors.Inc()
				ack.Err = err.Error()
			}
			ack.Seq = env.Seq // the handler must not reroute the ack
			if err := writeMsg(w, &ack); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
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

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	seq  uint64

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

// Call sends one request and waits for its ack. A transport failure closes
// the connection (the next call redials) and returns the error; an ack
// carrying a handler error returns that error without closing.
func (c *ControlClient) Call(env *Envelope) error {
	_, err := c.CallE(env)
	return err
}

// CallE is Call returning the ack envelope, so callers of the delta
// protocol can read the enriched fields (Epoch, Term, Delta). On a
// RejectedError the ack is still returned — a gap rejection carries the
// peer's applied epoch. The ack is nil only on transport failure.
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
	if err := writeMsg(c.conn, env); err != nil {
		c.dropConnLocked()
		return nil, err
	}
	var ack Envelope
	for {
		if err := readMsg(c.r, &ack); err != nil {
			c.dropConnLocked()
			return nil, err
		}
		if (ack.Type == MsgAck || ack.Type == MsgDeltaAck) && ack.Seq == env.Seq {
			break
		}
		// An ack for an older (timed-out) request; keep reading.
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
