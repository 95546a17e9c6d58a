//go:build linux && (amd64 || arm64)

package wire

import (
	"runtime"
	"syscall"
	"unsafe"

	"duet/internal/telemetry"
)

// The two primitives under the burst loop, on Linux: recvmmsg takes a burst
// off the listening socket and sendmmsg puts a next hop's runs on the wire,
// a run of several frames as one UDP_SEGMENT message. Both go through the
// sockets' syscall.RawConn, so the runtime poller parks the goroutine when
// the socket is not ready, and both callbacks are built once per owner —
// a method value made per call would allocate.

// segmentOffload: endpoints start out sending equal-length runs segmented.
const segmentOffload = true

const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: cmsg carrying the segment size as a uint16
	udpGRO     = 104 // UDP_GRO: socket option, and cmsg carrying a coalesced read's segment size as an int
)

// sendmmsgTrap is SYS_SENDMMSG, which the frozen syscall package lacks on
// amd64 (SYS_RECVMMSG it has).
func sendmmsgTrap() uintptr {
	if runtime.GOARCH == "arm64" {
		return 269
	}
	return 307
}

// mmsghdr is struct mmsghdr: a message and, on return, its byte count.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// rxCmsg and segmentCmsg are the control messages used, laid out as the
// kernel reads and writes them, so no cmsg bytes are cast. Both received
// ones carry 4 bytes: SO_RXQ_OVFL the datagrams the socket has dropped since
// it was opened, UDP_GRO the segment size of a coalesced read.
type rxCmsg struct {
	hdr  syscall.Cmsghdr
	data uint32
	_    [4]byte
}

// rxControl is one message's control buffer: room for both received cmsgs.
type rxControl [2]rxCmsg

type segmentCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// setRxOptions asks the kernel to attach the socket's cumulative drop count
// to received datagrams, and to hand over a run of equal-length datagrams
// from one sender (a peer's UDP_SEGMENT message) as one coalesced read
// rather than split it back into datagrams. Both are best effort: without
// the first, overflow goes uncounted, as on other platforms; without the
// second, every read is one datagram.
func setRxOptions(rc syscall.RawConn) {
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
		_ = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
	})
}

// rxSlot is the room for one received message: the largest coalesced read.
const rxSlot = 64 << 10

// rxBurst is a worker's receive side: Batch slots of rxSlot bytes, each with
// its own control buffer, and the message vector pointing at them. The slots
// are one anonymous private mapping, so they cost only the pages the kernel
// writes: a burst of plain datagrams touches the first page or so of each
// slot, and only coalesced runs reach further.
type rxBurst struct {
	d     *Dataplane
	buf   []byte
	heap  bool // buf is a heap fallback for a refused mapping
	msgs  []mmsghdr
	iovs  []syscall.Iovec
	ctl   []rxControl
	read  func(fd uintptr) bool // recvmmsg, bound once
	n     int
	errno syscall.Errno
}

func (rx *rxBurst) init(d *Dataplane) {
	n := d.cfg.Batch
	rx.d = d
	var err error
	rx.buf, err = syscall.Mmap(-1, 0, n*rxSlot, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		rx.buf, rx.heap = make([]byte, n*rxSlot), true
	}
	rx.msgs = make([]mmsghdr, n)
	rx.iovs = make([]syscall.Iovec, n)
	rx.ctl = make([]rxControl, n)
	for i := range rx.msgs {
		rx.iovs[i] = syscall.Iovec{Base: &rx.buf[i*rxSlot], Len: rxSlot}
		rx.msgs[i].hdr = syscall.Msghdr{Iov: &rx.iovs[i], Iovlen: 1, Control: (*byte)(unsafe.Pointer(&rx.ctl[i]))}
	}
	rx.read = rx.recvmmsg
}

// release unmaps the slots; the burst is not used again.
func (rx *rxBurst) release() {
	if rx.buf != nil && !rx.heap {
		_ = syscall.Munmap(rx.buf)
	}
	rx.buf = nil
}

// recvmmsg is the RawConn.Read callback: false parks the goroutine until
// the socket is readable.
//
//duet:hotpath
func (rx *rxBurst) recvmmsg(fd uintptr) bool {
	for i := range rx.msgs {
		rx.msgs[i].hdr.Controllen = uint64(unsafe.Sizeof(rxControl{})) // the kernel overwrote it with what it used
	}
	r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&rx.msgs[0])), uintptr(len(rx.msgs)), 0, 0, 0)
	if e == syscall.EAGAIN {
		return false
	}
	rx.n, rx.errno = int(r), e
	return true
}

// recv waits until the socket has datagrams and takes up to Batch messages;
// they are valid until the next recv. The error is the socket's closing; a
// failed receive call (EINTR, an ICMP-induced error) is retried.
//
//duet:hotpath
func (rx *rxBurst) recv() (int, error) {
	for {
		if err := rx.d.rc.Read(rx.read); err != nil {
			return 0, err
		}
		if rx.errno == 0 {
			break
		}
	}
	// The last message was queued last, so it carries the freshest count.
	if drops := rx.cmsg(max(rx.n-1, 0), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL); drops != 0 {
		rx.d.rxOverflow(drops)
	}
	return rx.n, nil
}

// cmsg is the value of the 4-byte control message (level, typ) the kernel
// attached to message i of the last recv, 0 if it attached none: it
// attaches neither a drop count of 0 nor the segment size of a lone
// datagram.
//
//duet:hotpath
func (rx *rxBurst) cmsg(i int, level, typ int32) uint32 {
	used := rx.msgs[i].hdr.Controllen
	for k := range rx.ctl[i] {
		c := &rx.ctl[i][k]
		if used < uint64(k+1)*uint64(unsafe.Sizeof(*c)) || c.hdr.Len != uint64(syscall.CmsgLen(4)) {
			break
		}
		if c.hdr.Level == level && c.hdr.Type == typ {
			return c.data
		}
	}
	return 0
}

// full reports whether the last recv filled every slot, i.e. the socket may
// hold more.
//
//duet:hotpath
func (rx *rxBurst) full() bool { return rx.n == len(rx.msgs) }

// msg is the i-th message of the last recv and its segment size: a
// coalesced read is datagrams of seg bytes back to back, the last maybe
// shorter; seg 0 means the message is one datagram.
//
//duet:hotpath
func (rx *rxBurst) msg(i int) ([]byte, int) {
	off := i * rxSlot
	return rx.buf[off : off+int(rx.msgs[i].n)], int(rx.cmsg(i, solUDP, udpGRO))
}

// rxOverflow folds the kernel's drop count, read off the last message of a
// burst, into the drop counters: a datagram that found the receive queue
// full is the wire's NIC-ring overflow. The count is cumulative and 32 bits
// wide, workers read it concurrently, and it trails the drops by the one
// datagram that carries it — enough for a rate watchdog.
//
//duet:hotpath
func (d *Dataplane) rxOverflow(total uint32) {
	for {
		seen := d.rxDrops.Load()
		lost := int32(total - seen)
		if lost <= 0 {
			return // another worker already counted past this reading
		}
		if d.rxDrops.CompareAndSwap(seen, total) {
			d.tel.drop(d.tel.dropRxFull, telemetry.DropBacklogFull, uint64(lost))
			return
		}
	}
}

// txSender is a tx batch's send side: the message vector, one iovec per
// frame and one segment-size cmsg per message.
type txSender struct {
	msgs  []mmsghdr
	iovs  []syscall.Iovec
	cmsgs []segmentCmsg
	write func(fd uintptr) bool // sendmmsg, bound once
	// msgs[off:end] is what the next sendmmsg sends; sent and errno are
	// what it returned.
	off, end, sent int
	errno          syscall.Errno
}

func (s *txSender) init(max int) {
	s.msgs = make([]mmsghdr, max)
	s.iovs = make([]syscall.Iovec, max)
	s.cmsgs = make([]segmentCmsg, max)
	s.write = s.sendmmsg
}

// sendmmsg is the RawConn.Write callback: false parks the goroutine until
// the socket is writable.
//
//duet:hotpath
func (s *txSender) sendmmsg(fd uintptr) bool {
	r, _, e := syscall.Syscall6(sendmmsgTrap(), fd,
		uintptr(unsafe.Pointer(&s.msgs[s.off])), uintptr(s.end-s.off), 0, 0, 0)
	if e == syscall.EAGAIN {
		return false
	}
	s.sent, s.errno = int(r), e
	return true
}

// send puts runs — a plan of frames, in order — on ep's socket. It returns
// how many leading runs left and, when that is not all of them, the error
// the next one was refused with. The kernel stops a sendmmsg at the first
// message it refuses and reports the error only if that was the first, so
// the loop resumes after what was sent until a call sends nothing.
//
//duet:hotpath
func (s *txSender) send(ep *endpoint, frames [][]byte, runs []run) (int, error) {
	f := 0
	for i, r := range runs {
		for k := 0; k < r.n; k++ {
			s.iovs[f+k] = syscall.Iovec{Base: &frames[f+k][0], Len: uint64(r.size)}
		}
		m := &s.msgs[i]
		m.hdr = syscall.Msghdr{Iov: &s.iovs[f], Iovlen: uint64(r.n)}
		if r.n > 1 {
			c := &s.cmsgs[i]
			c.hdr = syscall.Cmsghdr{Len: uint64(syscall.CmsgLen(2)), Level: solUDP, Type: udpSegment}
			c.size = uint16(r.size)
			m.hdr.Control = (*byte)(unsafe.Pointer(c))
			m.hdr.Controllen = uint64(unsafe.Sizeof(*c))
		}
		f += r.n
	}
	s.off, s.end = 0, len(runs)
	for s.off < s.end {
		if err := ep.rc.Write(s.write); err != nil {
			return s.off, err
		}
		switch s.errno {
		case 0:
			s.off += s.sent
		case syscall.EINTR:
		default:
			return s.off, s.errno
		}
	}
	return s.end, nil
}
