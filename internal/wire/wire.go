// Package wire puts the Duet dataplane on actual sockets. Everything the
// in-process facade does with method dispatch — an SMux encapsulating a
// packet and handing it to a host agent, the controller programming a mux's
// VIP table — becomes real bytes on loopback (or a real network):
//
//   - The dataplane carries internal/packet frames (raw IPv4, possibly
//     IP-in-IP) over UDP datagrams, one frame per datagram, behind a small
//     wire header (frame.go below). The unit of work is the burst
//     (dataplane.go): a worker takes up to Batch datagrams off the socket
//     in one recvmmsg, runs each through the role handler to completion,
//     and sends what the handlers forwarded as one sendmmsg per next hop.
//     The frame payload handed to the handler is valid only for the
//     duration of the call — the same discipline as the Process hot paths,
//     so the zero-alloc encap/decap machinery is reused unchanged.
//
//   - The control plane is a length-prefixed TCP protocol of binary
//     envelopes (control.go) with four messages: hello, delta-push, ack, and
//     toward the controllers operators' snapshot requests. The client
//     redials a restarted peer on its next call, and the leading controller
//     replicates configuration as epoch deltas (ha.go, internal/delta): a
//     push without a delta probes a peer's applied epoch, lagging peers get
//     exactly the missing deltas, and only a peer behind the compaction
//     horizon (e.g. restarted blank long after the fact) or one that refuses
//     a delta where it stands gets the full-state snapshot — the recovery
//     path. Either way a restarted process converges back to serving state
//     without operator action — the cross-process version of the paper's
//     Figure 12 failover story. Controllers themselves are replicated: a
//     lease-based leader election (term + the leader's pushes over the same
//     channel) lets a warm standby tailing the delta log take over within
//     one lease timeout.
//
// cmd/duetd runs any role (smux, hostagent, switchagent, controller) as its
// own OS process from a static JSON cluster spec (spec.go); node.go wires
// the roles to the existing internal/smux, internal/hostagent and
// internal/hmux machinery — the switch role is itself the switch agent of
// Figure 9 (apply.go, reconcileSwitch) — and exposes each process's
// observability plane (internal/obs) over HTTP; a mux role publishes its
// tier's gauges through the collector core.Cluster runs (hmux.Gauges, …).
//
// Wire-level failures get their own drop taxonomy (telemetry.DropShortRead,
// DropBadFrame, DropConnRefused, DropBacklogFull, DropNoWireRoute), counted
// under wire.drops.* and watched by the obs "wire-drops" SLO rule.
package wire

import (
	"encoding/binary"
	"errors"
)

// Frame header layout (big endian):
//
//	offset 0  uint16  magic (0xD0E7)
//	offset 2  uint8   version (1)
//	offset 3  uint8   kind (low 7 bits: 1 = dataplane frame) | flags (bit 7)
//	offset 4  uint16  payload length
//	offset 6  uint64  trace ID — present only when the trace flag is set
//	...       ...     payload (a raw IPv4 packet, possibly IP-in-IP)
//
// UDP preserves datagram boundaries, so the explicit length exists to
// detect truncation (a datagram shorter than its declared payload) and the
// magic/version to reject foreign traffic instead of feeding it to the
// packet decoder.
//
// The trace extension is how one packet's journey survives process
// boundaries: a mux that samples a packet (~1 in TraceEvery) stamps a trace
// ID into the frame it forwards, every downstream process copies the ID
// onto its own forwarded frame, and each hop records a KindTraceHop
// flight-recorder event carrying the ID — so an aggregator reading every
// node's recorder can stitch the ordered HMux→{NMux|SMux}→host timeline
// with inter-hop wire latency. Unsampled frames (the overwhelming
// majority) carry no extension and are byte-identical to the pre-trace
// format.
const (
	frameMagic   uint16 = 0xD0E7
	frameVersion uint8  = 1
	// FrameData is the only frame kind currently defined.
	FrameData uint8 = 1
	// frameFlagTrace marks a frame carrying the 8-byte trace extension
	// between the header and the payload.
	frameFlagTrace uint8 = 0x80
	// frameKindMask extracts the kind from the kind/flags byte.
	frameKindMask uint8 = 0x7f
	// FrameHeaderLen is the wire header size preceding every payload.
	FrameHeaderLen = 6
	// TraceExtLen is the size of the optional trace extension.
	TraceExtLen = 8
	// MaxFramePayload bounds one frame's payload (an IPv4 packet is at most
	// 64 KiB, but the dataplane MTU below is what actually limits it).
	MaxFramePayload = 0xffff
)

// Frame decode errors, mapped onto the telemetry drop taxonomy by the
// dataplane receive loop.
var (
	ErrShortFrame = errors.New("wire: datagram shorter than declared frame")
	ErrBadFrame   = errors.New("wire: bad frame magic or version")
)

// AppendFrame encodes payload as one wire frame appended to dst.
func AppendFrame(dst, payload []byte) []byte {
	return AppendTracedFrame(dst, payload, 0)
}

// AppendTracedFrame encodes payload as one wire frame appended to dst,
// carrying the trace extension when trace is non-zero (zero means
// unsampled: the emitted frame is identical to AppendFrame's).
func AppendTracedFrame(dst, payload []byte, trace uint64) []byte {
	var hdr [FrameHeaderLen + TraceExtLen]byte
	binary.BigEndian.PutUint16(hdr[0:2], frameMagic)
	hdr[2] = frameVersion
	hdr[3] = FrameData
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(payload)))
	n := FrameHeaderLen
	if trace != 0 {
		hdr[3] |= frameFlagTrace
		binary.BigEndian.PutUint64(hdr[FrameHeaderLen:], trace)
		n += TraceExtLen
	}
	dst = append(dst, hdr[:n]...)
	return append(dst, payload...)
}

// DecodeFrame validates the wire header of one datagram and returns the
// payload (aliasing data). Any trace extension is skipped.
func DecodeFrame(data []byte) ([]byte, error) {
	payload, _, err := DecodeFrameTrace(data)
	return payload, err
}

// DecodeFrameTrace validates the wire header of one datagram and returns
// the payload (aliasing data) plus the trace ID carried by the optional
// trace extension (0 when the frame is unsampled). A frame with the trace
// flag set but too short to hold the extension is a truncation
// (ErrShortFrame), exactly like a payload shorter than its declared
// length.
func DecodeFrameTrace(data []byte) ([]byte, uint64, error) {
	if len(data) < FrameHeaderLen {
		return nil, 0, ErrShortFrame
	}
	if binary.BigEndian.Uint16(data[0:2]) != frameMagic || data[2] != frameVersion || data[3]&frameKindMask != FrameData {
		return nil, 0, ErrBadFrame
	}
	n := int(binary.BigEndian.Uint16(data[4:6]))
	off := FrameHeaderLen
	var trace uint64
	if data[3]&frameFlagTrace != 0 {
		if len(data) < FrameHeaderLen+TraceExtLen {
			return nil, 0, ErrShortFrame
		}
		trace = binary.BigEndian.Uint64(data[FrameHeaderLen:])
		off += TraceExtLen
	}
	if len(data) < off+n {
		return nil, 0, ErrShortFrame
	}
	return data[off : off+n], trace, nil
}
