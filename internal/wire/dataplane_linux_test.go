//go:build linux && (amd64 || arm64)

package wire

import (
	"bytes"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

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
// backlog_full so that every frame sent is either received or counted.
func TestRxOverflowCounted(t *testing.T) {
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
	const sent = 5000
	frame := AppendFrame(nil, make([]byte, 60))
	for i := 0; i < sent; i++ {
		if _, err := client.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
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
		t.Skip("an 8 KiB receive buffer held 5,000 frames; nothing overflowed")
	}
	// The count rides on the next datagram queued after the drops.
	if _, err := client.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the trailing frame", func() bool { return rx.Value() == got+1 })
	backlog := reg.Counter("wire.drops.backlog_full").Value()
	if backlog == 0 || got+backlog != sent {
		t.Fatalf("rx.frames %d + backlog_full %d != %d sent", got, backlog, sent)
	}
	if total := reg.Counter("wire.drops.total").Value(); total != backlog {
		t.Fatalf("drops.total = %d, backlog_full = %d", total, backlog)
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
