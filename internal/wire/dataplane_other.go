//go:build !(linux && (amd64 || arm64))

package wire

import (
	"errors"
	"net"
	"syscall"
)

// The two primitives under the burst loop where recvmmsg, sendmmsg and
// UDP_SEGMENT are not available: a burst is one datagram and a message is
// one write. The burst loop above them is the same.

// segmentOffload: every frame is its own message.
const segmentOffload = false

// setRxOptions: no portable way to read the socket's drop count or to take
// coalesced reads, so receive-queue overflow goes uncounted here and every
// read is one datagram.
func setRxOptions(syscall.RawConn) {}

// rxBurst is a worker's receive side: one MTU-sized buffer.
type rxBurst struct {
	d   *Dataplane
	buf []byte
	n   int
}

func (rx *rxBurst) init(d *Dataplane) {
	rx.d = d
	rx.buf = make([]byte, d.cfg.MTU)
}

func (rx *rxBurst) release() {}

// recv waits for one datagram. The error is the socket's closing; a failed
// read (e.g. an ICMP-induced error) is retried.
func (rx *rxBurst) recv() (int, error) {
	for {
		n, err := rx.d.conn.Read(rx.buf)
		if err == nil {
			rx.n = n
			return 1, nil
		}
		if rx.d.closed.Load() || errors.Is(err, net.ErrClosed) {
			return 0, err
		}
	}
}

// full: a burst of one says nothing about what the socket still holds, so
// every burst counts as full and workers alternate datagram by datagram.
func (rx *rxBurst) full() bool { return true }

// msg is the datagram of the last recv, never coalesced.
func (rx *rxBurst) msg(int) ([]byte, int) { return rx.buf[:rx.n], 0 }

// txSender is a tx batch's send side.
type txSender struct{}

func (txSender) init(int) {}

// send writes runs — runs of one, frame by frame — on ep's socket and
// returns how many left and the error that stopped it.
func (txSender) send(ep *endpoint, frames [][]byte, runs []run) (int, error) {
	for i := range runs {
		if _, err := ep.conn.Write(frames[i]); err != nil {
			return i, err
		}
	}
	return len(runs), nil
}
