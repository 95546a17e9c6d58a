//go:build linux && (amd64 || arm64)

package wire

import (
	"bytes"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"duet/internal/telemetry"
)

// TestSegmentRefusalLatches: a kernel that refuses a segmented run (here:
// forced, by a run the kernel must reject) latches the hop to runs of one
// and resends — nothing is dropped.
func TestSegmentRefusalLatches(t *testing.T) {
	s := newSink(t, "127.0.0.1:0")
	r := newBurstRig(t, DataplaneConfig{}, s.ep)
	tx := r.w.tx
	for seq := 0; seq < 3; seq++ {
		if err := tx.queue(s.ep, probe(0, seq, 60), 0); err != nil {
			t.Fatal(err)
		}
	}
	// The kernel refuses UDP_SEGMENT (EINVAL) on a socket with checksums off.
	ep := tx.hops[s.ep].ep
	var serr error
	if err := ep.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	if err := tx.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if !ep.noSegment.Load() {
		t.Fatal("the refused run did not latch the hop")
	}
	for i, got := range s.read(3) {
		if !bytes.Equal(got, AppendFrame(nil, probe(0, i, 60))) {
			t.Fatalf("datagram %d: got %x", i, got)
		}
	}
	if tx, drops := r.counter("wire.tx.frames"), r.counter("wire.drops.total"); tx != 3 || drops != 0 {
		t.Fatalf("tx.frames = %d, drops.total = %d, want 3 and 0", tx, drops)
	}
}

// TestRxOverflowCounted: with no queue of our own, a slow handler overflows
// the socket's receive buffer; the kernel's drop count must surface as
// backlog_full. Sent one datagram at a time, every frame sent is either
// received or counted. Sent as nodes forward them, in 64-frame runs the
// socket reads coalesced, a run the kernel drops may count once: the frames
// lost are between backlog_full and 64 times it.
func TestRxOverflowCounted(t *testing.T) {
	t.Run("datagrams", func(t *testing.T) {
		testRxOverflow(t, 1, func(client net.Conn, _ string, sent int) {
			frame := AppendFrame(nil, make([]byte, 60))
			for i := 0; i < sent; i++ {
				if _, err := client.Write(frame); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
	t.Run("segmented runs", func(t *testing.T) {
		testRxOverflow(t, 64, func(_ net.Conn, to string, sent int) {
			tx := newSegmenter(t, 64) // full batches flush as one 64-frame run each
			for i := 0; i < sent; i++ {
				if err := tx.queue(to, make([]byte, 60), 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.flush(); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// testRxOverflow overflows a dataplane with what send sends, in messages of
// perMsg frames, and checks that the frames lost are between backlog_full
// and perMsg times it.
func testRxOverflow(t *testing.T, perMsg uint64, send func(client net.Conn, to string, sent int)) {
	reg := telemetry.NewRegistry()
	dp, err := ListenDataplane("127.0.0.1:0", DataplaneConfig{Registry: reg, Workers: 1, ReadBuffer: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Close, which waits for the handler
	dp.Serve(func(_, scratch []byte, _ uint64) []byte {
		<-release
		return scratch
	})
	client, err := net.Dial("udp", dp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const sent = 80 * 64
	send(client, dp.Addr().String(), sent)
	unblock()
	rx := reg.Counter("wire.rx.frames")
	var got uint64
	var quiet int
	waitFor(t, "the receive queue to drain", func() bool {
		if v := rx.Value(); v != got {
			got, quiet = v, 0
		}
		quiet++
		return got > 0 && quiet > 5
	})
	if got == sent {
		t.Skipf("an 8 KiB receive buffer held %d frames; nothing overflowed", sent)
	}
	// The count rides on the next datagram queued after the drops.
	if _, err := client.Write(AppendFrame(nil, make([]byte, 60))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the trailing frame", func() bool { return rx.Value() == got+1 })
	backlog := reg.Counter("wire.drops.backlog_full").Value()
	if lost := sent - got; backlog == 0 || lost < backlog || lost > perMsg*backlog {
		t.Fatalf("%d sent, rx.frames %d: %d lost, backlog_full %d", sent, got, lost, backlog)
	}
	if total := reg.Counter("wire.drops.total").Value(); total != backlog {
		t.Fatalf("drops.total = %d, backlog_full = %d", total, backlog)
	}
}

// TestCoalescedReads: a peer's segmented run of 64 frames is one read —
// wire.rx.reads 1 for wire.rx.frames 64 — byte-identical and in order; with
// UDP_GRO off the socket, the kernel splits the run and it is 64 reads.
func TestCoalescedReads(t *testing.T) {
	for _, gro := range []int{1, 0} {
		r := newBurstRig(t, DataplaneConfig{Batch: 64})
		var serr error
		if err := r.w.d.rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, gro)
		}); err != nil || serr != nil {
			t.Fatal(err, serr)
		}
		in, to := newSegmenter(t, 64), r.addr()
		var payloads [][]byte
		for seq := 0; seq < 64; seq++ {
			payloads = append(payloads, probe(0, seq, 60))
			if err := in.queue(to, payloads[seq], 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.flush(); err != nil {
			t.Fatal(err)
		}
		for i, got := range r.catch(64) {
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("UDP_GRO %d: frame %d: got %x", gro, i, got)
			}
		}
		want := uint64(1)
		if gro == 0 {
			want = 64
		}
		if reads, frames := r.counter("wire.rx.reads"), r.counter("wire.rx.frames"); reads != want || frames != 64 {
			t.Fatalf("UDP_GRO %d: rx.reads = %d, rx.frames = %d, want %d and 64", gro, reads, frames, want)
		}
	}
}

// TestTurnOnTheSocket pins when a worker passes its turn on: not after a
// short burst — the lone-frame path must not wake a peer — and always after
// a full one, so that workers overlap when the socket runs ahead of them.
func TestTurnOnTheSocket(t *testing.T) {
	dp, err := ListenDataplane("127.0.0.1:0", DataplaneConfig{Workers: 2, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	entered, gate := make(chan struct{}, 16), make(chan struct{})
	defer close(gate) // before Close, which waits for the handlers
	dp.Serve(func(_, scratch []byte, _ uint64) []byte {
		entered <- struct{}{}
		<-gate
		return scratch
	})
	client, err := net.Dial("udp", dp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	send := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := client.Write(AppendFrame(nil, make([]byte, 60))); err != nil {
				t.Fatal(err)
			}
		}
	}
	enters := func(within time.Duration) bool {
		select {
		case <-entered:
			return true
		case <-time.After(within):
			return false
		}
	}

	send(1) // a short burst: its worker is now stuck in the handler, turn in hand
	if !enters(5 * time.Second) {
		t.Fatal("the first frame was not handled")
	}
	send(4)
	if enters(100 * time.Millisecond) {
		t.Fatal("a peer received while the worker of a short burst still held the turn")
	}
	gate <- struct{}{} // that worker now takes the four: a full burst, stuck in its first frame
	if !enters(5 * time.Second) {
		t.Fatal("the full burst was not handled")
	}
	send(1)
	if !enters(5 * time.Second) {
		t.Fatal("no peer took the turn while a full burst was being handled")
	}
}

// TestRxSlotsUnmapped: a worker's receive slots are a mapping of their own,
// unmapped when the worker's run returns. Each of 50 dataplanes' workers gets
// a mark at the end of its slots; all 50 marks read back through
// /proc/self/mem while the workers serve and none once the dataplanes are
// closed. (The address space itself is no witness: the runtime maps its own
// memory into freed ranges, so a range in /proc/self/maps may be reused, not
// leaked.)
func TestRxSlotsUnmapped(t *testing.T) {
	mem, err := os.Open("/proc/self/mem")
	if err != nil {
		t.Skip(err)
	}
	defer mem.Close()
	mark := []byte("duet rx slot end")
	var ends []int64 // each mark's address
	marked := func() (n int) {
		got := make([]byte, len(mark))
		for _, at := range ends {
			if _, err := mem.ReadAt(got, at); err == nil && bytes.Equal(got, mark) {
				n++
			}
		}
		return n
	}
	var dps []*Dataplane
	var stopped sync.WaitGroup
	for i := 0; i < 50; i++ {
		dp, err := ListenDataplane("127.0.0.1:0", DataplaneConfig{})
		if err != nil {
			t.Fatal(err)
		}
		w := newWorker(dp, func(_ *txBatch, _, scratch []byte, _ uint64) []byte { return scratch })
		end := w.rx.buf[len(w.rx.buf)-len(mark):]
		copy(end, mark)
		ends = append(ends, int64(uintptr(unsafe.Pointer(&end[0]))))
		stopped.Add(1)
		go func() { defer stopped.Done(); w.run() }()
		dps = append(dps, dp)
	}
	if n := marked(); n != len(ends) {
		t.Fatalf("%d of %d workers' slots readable while serving", n, len(ends))
	}
	for _, dp := range dps {
		dp.Close()
	}
	stopped.Wait()
	if n := marked(); n != 0 {
		t.Fatalf("%d of %d workers' slots still mapped after their dataplanes closed", n, len(ends))
	}
}
