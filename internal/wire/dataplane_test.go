package wire

// Tests of the burst dataplane. They drive a worker by hand — frames are
// written to the endpoint's socket first (loopback delivery is synchronous,
// so they are queued when Write returns) and one burst() then takes them —
// which makes the burst a test sees deterministic.

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"duet/internal/telemetry"
)

func TestPlanRuns(t *testing.T) {
	rep := func(n, size int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = size
		}
		return out
	}
	cat := func(parts ...[]int) (out []int) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name    string
		lens    []int
		segment bool
		want    []run
	}{
		{"empty", nil, true, nil},
		{"one frame is a plain datagram", []int{66}, true, []run{{1, 66}}},
		{"equal lengths coalesce", rep(5, 66), true, []run{{5, 66}}},
		{"a different length starts a message", []int{66, 66, 74, 66}, true, []run{{2, 66}, {1, 74}, {1, 66}}},
		{"70 equal frames split at 64", rep(70, 66), true, []run{{64, 66}, {6, 66}}},
		{"a run stays under the largest datagram", rep(40, 2048), true, []run{{31, 2048}, {9, 2048}}},
		{"latched hop sends runs of one", rep(3, 66), false, []run{{1, 66}, {1, 66}, {1, 66}}},
		{"runs do not reorder", cat(rep(2, 10), rep(3, 20), rep(1, 10)), true, []run{{2, 10}, {3, 20}, {1, 10}}},
	}
	for _, tc := range cases {
		frames := make([][]byte, len(tc.lens))
		for i, n := range tc.lens {
			frames[i] = make([]byte, n)
		}
		got := planRuns(nil, frames, tc.segment)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: planRuns = %v, want %v", tc.name, got, tc.want)
		}
		var n int
		for _, r := range got {
			n += r.n
		}
		if n != len(frames) {
			t.Errorf("%s: runs cover %d frames of %d", tc.name, n, len(frames))
		}
	}
}

func TestNextFrame(t *testing.T) {
	read := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)
		}
		return b
	}
	cases := []struct {
		name          string
		n, seg, mtu   int
		frames, sizes []int // each frame's length, and what it took off the read
	}{
		{"no cmsg is one datagram", 66, 0, 2048, []int{66}, []int{66}},
		{"one segment", 66, 66, 2048, []int{66}, []int{66}},
		{"the last segment may be short", 3*66 + 10, 66, 2048, []int{66, 66, 66, 10}, []int{66, 66, 66, 10}},
		{"a segment size larger than the read is one datagram", 66, 2048, 2048, []int{66}, []int{66}},
		{"an oversize datagram is cut at the MTU", 3000, 0, 2048, []int{2048}, []int{3000}},
		{"oversize segments are cut one by one", 2*3000 + 100, 3000, 2048, []int{2048, 2048, 100}, []int{3000, 3000, 100}},
		{"an empty read is one empty datagram", 0, 0, 2048, []int{0}, []int{0}},
	}
	for _, tc := range cases {
		b := read(tc.n)
		var frames, sizes []int
		off := 0
		for rest := b; ; {
			var f []byte
			f, rest = nextFrame(rest, tc.seg, tc.mtu)
			took := len(b) - len(rest) - off
			if !bytes.Equal(f, b[off:off+len(f)]) {
				t.Errorf("%s: frame %d is not the read's bytes at %d", tc.name, len(frames), off)
			}
			frames, sizes, off = append(frames, len(f)), append(sizes, took), off+took
			if len(rest) == 0 {
				break
			}
		}
		if !reflect.DeepEqual(frames, tc.frames) || !reflect.DeepEqual(sizes, tc.sizes) {
			t.Errorf("%s: frames %v taking %v, want %v taking %v", tc.name, frames, sizes, tc.frames, tc.sizes)
		}
	}
}

// sink is a raw UDP socket standing in for a next hop.
type sink struct {
	t    *testing.T
	conn *net.UDPConn
	ep   string
}

func newSink(t *testing.T, addr string) *sink {
	t.Helper()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.ListenUDP("udp", ua)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadBuffer(4 << 20)
	t.Cleanup(func() { c.Close() })
	return &sink{t: t, conn: c, ep: c.LocalAddr().String()}
}

// read returns the next n datagrams.
func (s *sink) read(n int) [][]byte {
	s.t.Helper()
	out := make([][]byte, 0, n)
	buf := make([]byte, 4096)
	_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(out) < n {
		m, err := s.conn.Read(buf)
		if err != nil {
			s.t.Fatalf("sink %s: got %d of %d datagrams: %v", s.ep, len(out), n, err)
		}
		out = append(out, append([]byte(nil), buf[:m]...))
	}
	return out
}

// empty reports whether nothing more arrives within a short wait.
func (s *sink) empty() bool {
	_ = s.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	_, err := s.conn.Read(make([]byte, 4096))
	return err != nil
}

// burstRig is a listening endpoint whose one worker the test turns by hand,
// and a client socket connected to it. A frame's payload is its next hop's
// index, then its sequence number, then padding: the handler forwards the
// payload unchanged to that hop. A rig without next hops keeps a copy of
// every payload instead (caught), standing in for a next hop itself.
type burstRig struct {
	t      *testing.T
	reg    *telemetry.Registry
	w      *worker
	client net.Conn
	hops   []string
	caught [][]byte
}

func newBurstRig(t *testing.T, cfg DataplaneConfig, hops ...string) *burstRig {
	t.Helper()
	r := &burstRig{t: t, reg: telemetry.NewRegistry(), hops: hops}
	cfg.Registry = r.reg
	dp, err := ListenDataplane("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Close)
	r.w = newWorker(dp, func(tx *txBatch, payload, scratch []byte, trace uint64) []byte {
		if len(r.hops) == 0 {
			r.caught = append(r.caught, append([]byte(nil), payload...))
			return scratch
		}
		_ = tx.queue(r.hops[payload[0]], payload, trace)
		return scratch
	})
	t.Cleanup(r.w.rx.release) // a worker's run does this; this one is turned by hand
	if r.client, err = net.Dial("udp", dp.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.client.Close() })
	return r
}

func (r *burstRig) counter(name string) uint64 { return r.reg.Counter(name).Value() }

func (r *burstRig) addr() string { return r.w.d.Addr().String() }

// catch runs the worker until it has handled n more frames and returns
// their payloads, in the order handled.
func (r *burstRig) catch(n int) [][]byte {
	r.t.Helper()
	from := len(r.caught)
	_ = r.w.d.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(r.caught) < from+n {
		if err := r.w.burst(); err != nil {
			r.t.Fatalf("caught %d of %d frames: %v", len(r.caught)-from, n, err)
		}
	}
	return r.caught[from:]
}

// newSegmenter returns a tx batch of up to max frames on an endpoint of its
// own: it sends as a node forwards, a run of equal-length frames toward one
// next hop as one segmented message.
func newSegmenter(t *testing.T, max int) *txBatch {
	t.Helper()
	dp, err := ListenDataplane("127.0.0.1:0", DataplaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Close)
	return newTxBatch(dp, max)
}

// burst is one pass of worker.run's loop — a receive and its handling — by a
// worker nobody shares the socket with.
func (w *worker) burst() error {
	n, err := w.rx.recv()
	if err == nil {
		w.handle(n)
	}
	return err
}

func probe(hop, seq, size int) []byte {
	p := make([]byte, size)
	p[0], p[1] = byte(hop), byte(seq)
	return p
}

// turn writes the payloads (traced when trace is non-zero at that index)
// and runs the worker until it has taken them all — one burst wherever a
// receive can take more than one datagram.
func (r *burstRig) turn(payloads [][]byte, traces []uint64) {
	r.t.Helper()
	rx := r.counter("wire.rx.frames")
	for i, p := range payloads {
		var trace uint64
		if traces != nil {
			trace = traces[i]
		}
		if _, err := r.client.Write(AppendTracedFrame(nil, p, trace)); err != nil {
			r.t.Fatal(err)
		}
	}
	bursts := 0
	for r.counter("wire.rx.frames")-rx < uint64(len(payloads)) {
		if err := r.w.burst(); err != nil {
			r.t.Fatal(err)
		}
		bursts++
	}
	if segmentOffload && bursts != 1 {
		r.t.Fatalf("%d frames took %d bursts, want 1", len(payloads), bursts)
	}
}

func TestBurst(t *testing.T) {
	t.Run("mixed burst arrives complete, in order, byte-identical", func(t *testing.T) {
		sinks := []*sink{newSink(t, "127.0.0.1:0"), newSink(t, "127.0.0.1:0"), newSink(t, "127.0.0.1:0")}
		r := newBurstRig(t, DataplaneConfig{}, sinks[0].ep, sinks[1].ep, sinks[2].ep)
		var payloads [][]byte
		var traces []uint64
		want := make([][][]byte, len(sinks))
		for seq := 0; seq < 24; seq++ {
			hop, size, trace := seq%3, 60, uint64(0)
			if seq%4 == 3 {
				size = 68
			}
			if seq == 10 {
				// Traced, and as long on the wire as its 68-byte neighbours:
				// it must not be mistaken for one.
				trace = 0xfeed0000beef
			}
			p := probe(hop, seq, size)
			payloads, traces = append(payloads, p), append(traces, trace)
			want[hop] = append(want[hop], AppendTracedFrame(nil, p, trace))
		}
		r.turn(payloads, traces)
		for hop, s := range sinks {
			got := s.read(len(want[hop]))
			for i := range got {
				if !bytes.Equal(got[i], want[hop][i]) {
					t.Fatalf("hop %d datagram %d:\n got %x\nwant %x", hop, i, got[i], want[hop][i])
				}
			}
			if !s.empty() {
				t.Fatalf("hop %d received more than the %d frames sent", hop, len(want[hop]))
			}
		}
		if tx := r.counter("wire.tx.frames"); tx != 24 {
			t.Fatalf("tx.frames = %d, want 24 (datagrams, not syscalls)", tx)
		}
	})

	t.Run("a run of 70 equal frames splits and arrives whole", func(t *testing.T) {
		next := newBurstRig(t, DataplaneConfig{})
		r := newBurstRig(t, DataplaneConfig{Batch: 128}, next.addr())
		var payloads [][]byte
		for seq := 0; seq < 70; seq++ {
			payloads = append(payloads, probe(0, seq, 60))
		}
		r.turn(payloads, nil)
		for i, got := range next.catch(70) {
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("frame %d: got %x", i, got)
			}
		}
		if tx, b := r.counter("wire.tx.frames"), r.counter("wire.tx.bytes"); tx != 70 || b != 70*66 {
			t.Fatalf("tx.frames = %d, tx.bytes = %d, want 70 and %d", tx, b, 70*66)
		}
		// The next hop reads the two messages it was sent: 64 + 6 frames.
		reads := uint64(70)
		if segmentOffload {
			reads = 2
		}
		if got, f, b := next.counter("wire.rx.reads"), next.counter("wire.rx.frames"), next.counter("wire.rx.bytes"); got != reads || f != 70 || b != 70*66 {
			t.Fatalf("next hop: rx.reads = %d, rx.frames = %d, rx.bytes = %d, want %d, 70 and %d", got, f, b, reads, 70*66)
		}
	})

	t.Run("a datagram longer than the MTU is one short read", func(t *testing.T) {
		r := newBurstRig(t, DataplaneConfig{MTU: 2048})
		if _, err := r.client.Write(AppendFrame(nil, make([]byte, 3000))); err != nil {
			t.Fatal(err)
		}
		if err := r.w.burst(); err != nil {
			t.Fatal(err)
		}
		short, total, rx := r.counter("wire.drops.short_read"), r.counter("wire.drops.total"), r.counter("wire.rx.frames")
		if short != 1 || total != 1 || rx != 1 || len(r.caught) != 0 {
			t.Fatalf("short_read = %d, drops.total = %d, rx.frames = %d, handled %d; want 1, 1, 1, 0", short, total, rx, len(r.caught))
		}
	})

	t.Run("a dead next hop costs only its own frames", func(t *testing.T) {
		live, dead := newSink(t, "127.0.0.1:0"), newSink(t, "127.0.0.1:0")
		r := newBurstRig(t, DataplaneConfig{}, live.ep, dead.ep)
		round := func(seq int) {
			r.turn([][]byte{probe(0, seq, 60), probe(1, seq, 60), probe(1, seq, 60), probe(0, seq, 60)}, nil)
		}
		round(0)
		live.read(2)
		dead.read(2)

		dead.conn.Close()
		const rounds = 50
		for i := 1; i <= rounds; i++ {
			round(i)
			for _, got := range live.read(2) {
				if got[FrameHeaderLen+1] != byte(i) {
					t.Fatalf("round %d: live hop got a frame of round %d", i, got[FrameHeaderLen+1])
				}
			}
		}
		refused := r.counter("wire.drops.conn_refused")
		if refused == 0 {
			t.Skip("no ECONNREFUSED on this loopback; kernel swallowed the ICMP")
		}
		// Every frame forwarded is either on the wire or a counted drop.
		if tx := r.counter("wire.tx.frames"); tx+refused != 4*(rounds+1) {
			t.Fatalf("tx.frames %d + conn_refused %d != %d frames forwarded", tx, refused, 4*(rounds+1))
		}
		if total := r.counter("wire.drops.total"); total != refused {
			t.Fatalf("drops.total = %d, conn_refused = %d", total, refused)
		}

		// A refusal earned by the last send into the void may still be
		// pending on the socket; it costs the next message at most, then
		// traffic flows.
		back := newSink(t, dead.ep)
		round(rounds + 1)
		round(rounds + 2)
		live.read(4)
		got := back.read(2)
		if got[0][FrameHeaderLen+1] == byte(rounds+1) {
			got = back.read(2)
		}
		if got[0][FrameHeaderLen+1] != byte(rounds+2) || got[1][FrameHeaderLen+1] != byte(rounds+2) {
			t.Fatalf("the revived hop did not get round %d", rounds+2)
		}
	})

	t.Run("Close ends workers blocked in the receive", func(t *testing.T) {
		dp, err := ListenDataplane("127.0.0.1:0", DataplaneConfig{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		dp.Serve(func(_, scratch []byte, _ uint64) []byte { return scratch })
		time.Sleep(20 * time.Millisecond) // let the workers park
		done := make(chan struct{})
		go func() { dp.Close(); close(done) }()
		select {
		case <-done: // leakcheck (TestMain) fails the binary if a worker outlives this
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return: a worker is stuck in the receive")
		}
	})
}

// TestBurstZeroAlloc is the allocation gate of the wire hot path: a burst —
// coalesced receive, split, decode, handler, queue, flush, two next hops and
// a traced frame — allocates nothing in steady state.
func TestBurstZeroAlloc(t *testing.T) {
	a, b := newSink(t, "127.0.0.1:0"), newSink(t, "127.0.0.1:0")
	r := newBurstRig(t, DataplaneConfig{Recorder: telemetry.NewRecorder(0), TraceEvery: 4}, a.ep, b.ep)
	// Four runs of four equal-length frames, sent as a node sends them: four
	// segmented messages, read as four coalesced reads.
	var payloads [][]byte
	for seq := 0; seq < 16; seq++ {
		payloads = append(payloads, probe(seq%2, seq, 60+8*(seq/4%3)))
	}
	in, to := newSegmenter(t, len(payloads)), r.addr()
	rxFrames := r.reg.Counter("wire.rx.frames")
	turn := func() {
		for _, p := range payloads {
			if err := in.queue(to, p, 0); err != nil {
				panic(fmt.Sprint("queue: ", err))
			}
		}
		if err := in.flush(); err != nil {
			panic(fmt.Sprint("flush: ", err))
		}
		for n := uint64(0); n < uint64(len(payloads)); {
			rx := rxFrames.Value()
			if err := r.w.burst(); err != nil {
				panic(fmt.Sprint("burst: ", err))
			}
			n += rxFrames.Value() - rx
		}
	}
	turn() // dial the next hops, grow the per-hop queues
	if segmentOffload {
		if reads := r.counter("wire.rx.reads"); reads != 4 {
			t.Fatalf("16 frames in 4 runs took %d reads, want 4", reads)
		}
	}
	if avg := testing.AllocsPerRun(200, turn); avg != 0 {
		t.Fatalf("a burst of %d frames allocates %.2f times, want 0", len(payloads), avg)
	}
	// This turn, AllocsPerRun's warm-up and its 200 runs all went out.
	if tx := r.counter("wire.tx.frames"); tx != 202*uint64(len(payloads)) {
		t.Fatalf("tx.frames = %d, want %d", tx, 202*len(payloads))
	}
}
