package wire

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"duet/internal/telemetry"
)

// DataplaneConfig sizes one UDP dataplane endpoint.
type DataplaneConfig struct {
	// Workers is the number of burst workers (default GOMAXPROCS). They are
	// identical and take turns on the one socket (the runtime admits one
	// reader of an fd at a time anyway). A worker keeps its turn while its
	// bursts come up short — the socket was drained, nothing is left for a
	// peer, and waking one costs more than the frames do — and passes it on
	// when a burst fills: more is queued, so a peer receives and handles it
	// while this worker is still handling and sending. Below saturation one
	// worker does all the work and the rest sleep; at saturation they
	// overlap.
	Workers int
	// Batch is the burst size: the most messages one receive call takes off
	// the socket, and the most frames one flush sends (default 32). A
	// message is a datagram, or on Linux a peer's segmented run read as
	// one. A burst is whatever is queued when a worker gets its turn — it
	// is never waited for, so a lone frame is a burst of one through the
	// same path. A burst that fills every message slot is what passes the
	// turn to the next worker. On Linux a burst costs one recvmmsg plus one
	// sendmmsg per next hop; elsewhere the same loop runs one syscall per
	// datagram.
	Batch int
	// MTU bounds each frame, received or sent (default 2048): a frame
	// received longer is cut at MTU and counted as a short read.
	MTU int
	// ReadBuffer is the socket receive buffer hint in bytes (default 4MiB;
	// 0 keeps the kernel default, negative skips SetReadBuffer). It is the
	// only queue between the wire and the handlers: what overflows it is
	// counted under wire.drops.backlog_full.
	ReadBuffer int
	// Registry/Recorder receive the wire.* counters and KindDrop events
	// (nil disables instrumentation; all hot-path handles are nil-safe).
	Registry *telemetry.Registry
	Recorder *telemetry.Recorder
	// Node identifies this endpoint in flight-recorder events and in the
	// trace IDs it originates.
	Node uint32
	// TraceEvery, when positive, originates a cross-process trace for one
	// in every TraceEvery untraced frames (rounded up to a power of two,
	// the same gating as telemetry.Recorder.Sample): the handler receives
	// a fresh trace ID and every frame forwarded with SendTraced carries
	// it downstream. Zero disables origination; frames that already carry
	// a trace are always propagated regardless.
	TraceEvery int
}

func (cfg *DataplaneConfig) setDefaults() {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 2048
	}
	if cfg.ReadBuffer == 0 {
		cfg.ReadBuffer = 4 << 20
	}
}

// dataplaneTelemetry is the dataplane's pre-resolved instrument block.
// dropTotal is incremented alongside every labeled drop so the obs
// "wire-drops" watchdog has a single series to rate.
type dataplaneTelemetry struct {
	rxFrames, rxBytes telemetry.CounterShard
	rxReads           telemetry.CounterShard
	txFrames, txBytes telemetry.CounterShard
	dropShort         telemetry.CounterShard
	dropBadFrame      telemetry.CounterShard
	dropConnRefused   telemetry.CounterShard
	dropRxFull        telemetry.CounterShard
	dropNoRoute       telemetry.CounterShard
	dropTotal         telemetry.CounterShard
	traceOrigins      telemetry.CounterShard
	traceRx           telemetry.CounterShard
	rec               *telemetry.Recorder
	node              uint32
}

func newDataplaneTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder, node uint32) dataplaneTelemetry {
	return dataplaneTelemetry{
		rxFrames:        reg.Counter("wire.rx.frames").Shard(),
		rxBytes:         reg.Counter("wire.rx.bytes").Shard(),
		rxReads:         reg.Counter("wire.rx.reads").Shard(),
		txFrames:        reg.Counter("wire.tx.frames").Shard(),
		txBytes:         reg.Counter("wire.tx.bytes").Shard(),
		dropShort:       reg.Counter("wire.drops.short_read").Shard(),
		dropBadFrame:    reg.Counter("wire.drops.bad_frame").Shard(),
		dropConnRefused: reg.Counter("wire.drops.conn_refused").Shard(),
		dropRxFull:      reg.Counter("wire.drops.backlog_full").Shard(),
		dropNoRoute:     reg.Counter("wire.drops.no_route").Shard(),
		dropTotal:       reg.Counter("wire.drops.total").Shard(),
		traceOrigins:    reg.Counter("wire.trace.origins").Shard(),
		traceRx:         reg.Counter("wire.trace.rx").Shard(),
		rec:             rec,
		node:            node,
	}
}

// drop counts n datagrams lost for one reason and records one event for the
// occurrence.
func (t *dataplaneTelemetry) drop(shard telemetry.CounterShard, reason telemetry.DropReason, n uint64) {
	shard.Add(n)
	t.dropTotal.Add(n)
	t.rec.Record(telemetry.KindDrop, t.node, 0, 0, uint64(reason))
}

// Handler processes one received frame payload (a raw IPv4 packet). The
// payload aliases the worker's receive buffer and is valid only for the
// duration of the call. scratch is a per-worker reusable buffer the handler
// may append into (typically as the out parameter of Process/Receive); it
// returns the buffer to reuse on the next call, so steady-state handling
// allocates nothing. trace is the packet's cross-process trace ID — from
// the frame's trace extension, or freshly originated by the TraceEvery
// sampler — and 0 for the unsampled majority; handlers that forward the
// packet pass it to SendTraced so the journey continues downstream.
type Handler func(payload, scratch []byte, trace uint64) []byte

// frameFunc is the form the node roles serve: a Handler that is also handed
// its worker's tx batch, so what it forwards is queued on the burst and
// leaves in the burst's flush rather than in a syscall of its own.
type frameFunc func(tx *txBatch, payload, scratch []byte, trace uint64) []byte

// Dataplane is one UDP dataplane endpoint: a listening socket served in
// bursts and a connected-socket send cache. Safe for concurrent Send
// callers; Serve may be called at most once.
type Dataplane struct {
	cfg  DataplaneConfig
	conn *net.UDPConn
	rc   syscall.RawConn // conn's descriptor, for the burst receive

	sendMu sync.RWMutex
	sends  map[string]*endpoint
	// sendPool holds batches of one for Send/SendTraced, whose callers own
	// no worker batch.
	sendPool sync.Pool

	tel dataplaneTelemetry

	// traceMask gates trace origination (ctr & mask == 0 samples, mirroring
	// telemetry.Recorder.Sample); 0 disables. traceIDs numbers the traces
	// this endpoint originated, folded under the node address so IDs stay
	// unique across the fleet.
	traceMask uint64
	traceCtr  atomic.Uint64
	traceIDs  atomic.Uint64

	// turn is held by the worker whose turn it is on the socket (see
	// worker.run); the others sleep on it.
	turn sync.Mutex

	// rxDrops is the kernel's cumulative receive-queue drop count as last
	// folded into the drop counters (see rxOverflow).
	rxDrops atomic.Uint32

	stages *stageCounters // set by serve, before the workers start

	closed  atomic.Bool
	workWG  sync.WaitGroup
	serving atomic.Bool
}

// endpoint is one next hop: a connected UDP socket, which skips the
// per-send route lookup and — unlike sendto on an unconnected socket —
// surfaces ICMP port unreachable as ECONNREFUSED on a later send, which is
// how a dead peer becomes visible to the drop taxonomy.
type endpoint struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	// noSegment latches when the kernel refuses a segmented run toward this
	// hop (or the platform has no segmentation): every frame is then its
	// own message.
	noSegment atomic.Bool
}

// ListenDataplane binds a UDP dataplane endpoint on addr (host:port; port 0
// picks a free port — read it back with Addr).
func ListenDataplane(addr string, cfg DataplaneConfig) (*Dataplane, error) {
	cfg.setDefaults()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	if cfg.ReadBuffer > 0 {
		_ = conn.SetReadBuffer(cfg.ReadBuffer) // best effort; kernel may clamp
	}
	setRxOptions(rc)
	d := &Dataplane{
		cfg:   cfg,
		conn:  conn,
		rc:    rc,
		sends: make(map[string]*endpoint),
		tel:   newDataplaneTelemetry(cfg.Registry, cfg.Recorder, cfg.Node),
	}
	d.sendPool.New = func() any { return newTxBatch(d, 1) }
	if cfg.TraceEvery > 0 {
		p := uint64(1)
		for p < uint64(cfg.TraceEvery) {
			p <<= 1
		}
		d.traceMask = p - 1
		d.traceCtr.Store(p - 1) // the first packet in is eligible
	}
	return d, nil
}

// Addr returns the bound UDP address.
func (d *Dataplane) Addr() *net.UDPAddr { return d.conn.LocalAddr().(*net.UDPAddr) }

// Serve starts the burst workers and returns immediately. h runs on the
// worker goroutines, possibly concurrently with itself.
func (d *Dataplane) Serve(h Handler) {
	d.serve(func(_ *txBatch, payload, scratch []byte, trace uint64) []byte {
		return h(payload, scratch, trace)
	}, nil)
}

// serve starts the burst workers on h. stages, if not nil, are the counters
// of the stages h counts into the tx batch's tally; the worker adds the
// tally to them when each burst ends.
func (d *Dataplane) serve(h frameFunc, stages *stageCounters) {
	if !d.serving.CompareAndSwap(false, true) {
		panic("wire: Dataplane.Serve called twice")
	}
	d.stages = stages
	for i := 0; i < d.cfg.Workers; i++ {
		w := newWorker(d, h)
		d.workWG.Add(1)
		go func() {
			defer d.workWG.Done()
			w.run()
		}()
	}
}

// worker owns everything one burst touches — receive buffers, handler
// scratch, tx batch — so a burst runs to completion on one goroutine with
// no hand-off, lock or allocation.
type worker struct {
	d       *Dataplane
	h       frameFunc
	rx      rxBurst
	tx      *txBatch
	scratch []byte
}

func newWorker(d *Dataplane, h frameFunc) *worker {
	w := &worker{d: d, h: h, tx: newTxBatch(d, d.cfg.Batch), scratch: make([]byte, 0, d.cfg.MTU)}
	w.rx.init(d)
	return w
}

// run is the burst loop: with the turn on the socket in hand, wait for
// datagrams, take up to Batch messages in one receive, and handle them. A
// short burst drained the socket, so the worker keeps the turn: a peer woken
// now would receive nothing and go back to sleep, and the wake-up — a thread
// to find, maybe to start — costs more than a few frames do and makes a lone
// frame's latency depend on where the scheduler found it. A full burst means
// more is queued: the turn is released around the handling and a peer takes
// the next burst meanwhile. It returns when the socket closes, and frees
// the worker's receive slots.
//
//duet:hotpath
func (w *worker) run() {
	d := w.d
	defer w.rx.release()
	d.turn.Lock() //duet:allow hotpath taken per turn on the socket, not per frame; this is where the workers without the turn sleep
	defer d.turn.Unlock()
	for {
		n, err := w.rx.recv()
		if err != nil {
			return
		}
		if w.rx.full() {
			d.turn.Unlock()
			w.handle(n)
			d.turn.Lock() //duet:allow hotpath as above, once per full burst
		} else {
			w.handle(n)
		}
	}
}

// handle runs the frames of the last receive's n messages through the
// handler, flushes what the handler forwarded and adds what it counted to
// the stage counters.
//
//duet:hotpath
func (w *worker) handle(n int) {
	mtu, frames := w.d.cfg.MTU, 0
	for i := 0; i < n; i++ {
		b, seg := w.rx.msg(i)
		for {
			f, rest := nextFrame(b, seg, mtu)
			w.handleFrame(f)
			frames++
			if len(rest) == 0 {
				break
			}
			b = rest
		}
	}
	w.d.tel.rxReads.Add(uint64(n))
	w.d.tel.rxFrames.Add(uint64(frames))
	_ = w.tx.flush() // send failures are counted by the flush
	if w.d.stages != nil {
		w.d.stages.flush(&w.tx.tally)
	}
}

// nextFrame splits the first datagram off a read b whose datagrams are seg
// bytes each, the last maybe shorter (seg 0, or not less than len(b): b is
// one datagram), and returns it cut at mtu — a frame the kernel would have
// truncated into an MTU-sized slot, which the decode counts as a short
// read — and the rest of the read.
//
//duet:hotpath
func nextFrame(b []byte, seg, mtu int) (frame, rest []byte) {
	n := len(b)
	if seg > 0 && seg < n {
		n = seg
	}
	frame, rest = b[:n], b[n:]
	if n > mtu {
		frame = frame[:mtu]
	}
	return frame, rest
}

// handleFrame validates the wire header, resolves the frame's trace ID and
// invokes the handler.
//
//duet:hotpath
func (w *worker) handleFrame(frame []byte) {
	d := w.d
	d.tel.rxBytes.Add(uint64(len(frame)))
	payload, trace, err := DecodeFrameTrace(frame)
	switch {
	case errors.Is(err, ErrBadFrame):
		d.tel.drop(d.tel.dropBadFrame, telemetry.DropBadFrame, 1)
	case err != nil:
		d.tel.drop(d.tel.dropShort, telemetry.DropShortRead, 1)
	default:
		switch {
		case trace != 0:
			d.tel.traceRx.Inc()
		case d.traceMask != 0 && d.traceCtr.Add(1)&d.traceMask == 0:
			trace = d.newTraceID()
			d.tel.traceOrigins.Inc()
		}
		w.scratch = w.h(w.tx, payload, w.scratch, trace)
	}
}

// newTraceID mints a fleet-unique trace ID: the endpoint's node address in
// the high 32 bits, a local sequence below. Never returns 0 (the "no trace"
// sentinel).
func (d *Dataplane) newTraceID() uint64 {
	id := uint64(d.cfg.Node)<<32 | d.traceIDs.Add(1)&0xffffffff
	if id == 0 {
		id = 1
	}
	return id
}

// endpoint returns the connected socket toward ep (host:port), creating and
// caching it on first use.
func (d *Dataplane) endpoint(ep string) (*endpoint, error) {
	d.sendMu.RLock()
	e, ok := d.sends[ep]
	d.sendMu.RUnlock()
	if ok {
		return e, nil
	}
	ua, err := net.ResolveUDPAddr("udp", ep)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %s: %w", ep, err)
	}
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	if e, ok := d.sends[ep]; ok {
		return e, nil
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", ep, err)
	}
	rc, err := c.SyscallConn()
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("wire: dial %s: %w", ep, err)
	}
	e = &endpoint{conn: c, rc: rc}
	e.noSegment.Store(!segmentOffload)
	d.sends[ep] = e
	return e, nil
}

// A run is one message of a flush: n consecutive frames of size bytes each
// to one next hop, which the kernel splits back into n datagrams. A run of
// one is a plain datagram.
type run struct{ n, size int }

const (
	// maxRunFrames is the kernel's cap on segments per message
	// (UDP_MAX_SEGMENTS in the kernels this targets).
	maxRunFrames = 64
	// maxRunBytes is the largest UDP payload, which bounds a run's total.
	maxRunBytes = 65507
)

// planRuns appends to dst the messages that carry frames, in order: each
// run of consecutive equal-length frames is one message when segment is
// set, within the kernel's caps; otherwise every frame is its own message.
//
//duet:hotpath
func planRuns(dst []run, frames [][]byte, segment bool) []run {
	for i := 0; i < len(frames); {
		r := run{n: 1, size: len(frames[i])}
		for segment && i+r.n < len(frames) && len(frames[i+r.n]) == r.size &&
			r.n < maxRunFrames && (r.n+1)*r.size <= maxRunBytes {
			r.n++
		}
		dst = append(dst, r)
		i += r.n
	}
	return dst
}

// txBatch is what a burst forwards, grouped by next hop in arrival order,
// and the tally of what the burst's frames did in the node's stages. It
// belongs to one goroutine: a worker's lives as long as the worker, and
// Send/SendTraced borrow a batch of one from the pool.
type txBatch struct {
	d     *Dataplane
	hops  map[string]*txHop // every next hop this batch has sent to, by endpoint
	live  []*txHop          // the hops with frames queued, in first-use order
	arena []byte            // the queued frames' bytes, back to back
	n     int               // frames queued, at most max
	max   int
	runs  []run
	out   txSender
	tally stageTally
}

// txHop is one next hop's queue within a batch.
type txHop struct {
	ep     *endpoint
	frames [][]byte // slices of the arena
}

func newTxBatch(d *Dataplane, max int) *txBatch {
	tx := &txBatch{
		d:     d,
		hops:  make(map[string]*txHop),
		arena: make([]byte, 0, max*d.cfg.MTU),
		max:   max,
		runs:  make([]run, 0, max),
	}
	tx.out.init(max)
	return tx
}

var errPayloadTooLong = errors.New("wire: payload exceeds the dataplane MTU")

// queue frames payload toward ep; the frame leaves at the next flush (a
// full batch flushes itself first). The payload is copied, so the caller's
// buffer is free on return.
//
//duet:hotpath
func (tx *txBatch) queue(ep string, payload []byte, trace uint64) error {
	size := FrameHeaderLen + len(payload)
	if trace != 0 {
		size += TraceExtLen
	}
	if size > tx.d.cfg.MTU {
		return errPayloadTooLong
	}
	h := tx.hops[ep]
	if h == nil {
		var err error
		if h, err = tx.addHop(ep); err != nil {
			return err
		}
	}
	if tx.n == tx.max {
		_ = tx.flush()
	}
	off := len(tx.arena)
	tx.arena = AppendTracedFrame(tx.arena, payload, trace)
	if len(h.frames) == 0 {
		tx.live = append(tx.live, h)
	}
	h.frames = append(h.frames, tx.arena[off:len(tx.arena):len(tx.arena)])
	tx.n++
	return nil
}

// addHop resolves a next hop the batch has not sent to before.
//
//duet:allow hotpath first frame to a next hop: resolve, dial, cache
func (tx *txBatch) addHop(ep string) (*txHop, error) {
	e, err := tx.d.endpoint(ep)
	if err != nil {
		return nil, err
	}
	h := &txHop{ep: e}
	tx.hops[ep] = h
	return h, nil
}

// flush sends everything queued — per next hop, one send call carrying the
// hop's frames as runs — counts what left and what was refused, and
// empties the batch. It returns the first send error. No error loses more
// than the message it names: a refused segmentation latches the hop to
// runs of one and resends, ECONNREFUSED (the ICMP answer to an earlier
// send, i.e. a dead peer) drops the one message it was raised on, and a
// send that stopped part-way resumes after the messages that left.
//
//duet:hotpath
func (tx *txBatch) flush() error {
	var first error
	var sentFrames, sentBytes int
	tel := &tx.d.tel
	for _, h := range tx.live {
		frames := h.frames
		for len(frames) > 0 {
			tx.runs = planRuns(tx.runs[:0], frames, !h.ep.noSegment.Load())
			sent, err := tx.out.send(h.ep, frames, tx.runs)
			for _, r := range tx.runs[:sent] {
				sentFrames += r.n
				sentBytes += r.n * r.size
				frames = frames[r.n:]
			}
			if err == nil {
				continue
			}
			bad := tx.runs[sent]
			if bad.n > 1 && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.EIO)) {
				h.ep.noSegment.Store(true)
				continue
			}
			if errors.Is(err, syscall.ECONNREFUSED) {
				tel.drop(tel.dropConnRefused, telemetry.DropConnRefused, uint64(bad.n))
			}
			frames = frames[bad.n:]
			if first == nil {
				first = err
			}
		}
		h.frames = h.frames[:0]
	}
	tel.txFrames.Add(uint64(sentFrames))
	tel.txBytes.Add(uint64(sentBytes))
	tx.live = tx.live[:0]
	tx.arena = tx.arena[:0]
	tx.n = 0
	return first
}

// Send frames payload and writes it toward ep as one datagram. A send that
// fails because the peer's socket is gone counts as DropConnRefused and
// returns the error; the connected socket is kept, so sends succeed again
// as soon as the peer is back (restart recovery needs no bookkeeping).
func (d *Dataplane) Send(ep string, payload []byte) error {
	return d.SendTraced(ep, payload, 0)
}

// SendTraced is Send with the packet's trace ID carried in the frame's
// trace extension (0 sends a plain frame — the handler's trace value can be
// forwarded unconditionally).
func (d *Dataplane) SendTraced(ep string, payload []byte, trace uint64) error {
	tx := d.sendPool.Get().(*txBatch)
	err := tx.queue(ep, payload, trace)
	if err == nil {
		err = tx.flush()
	}
	d.sendPool.Put(tx)
	return err
}

// DropNoRoute counts a frame the node could not forward because the encap
// destination has no wire endpoint in the cluster spec.
func (d *Dataplane) DropNoRoute() {
	d.tel.drop(d.tel.dropNoRoute, telemetry.DropNoWireRoute, 1)
}

// Close shuts the socket down, which ends every worker's receive, and waits
// for the bursts in progress to finish. Safe to call once.
func (d *Dataplane) Close() {
	if !d.closed.CompareAndSwap(false, true) {
		return
	}
	_ = d.conn.Close()
	d.workWG.Wait()
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	for _, e := range d.sends {
		_ = e.conn.Close()
	}
}
