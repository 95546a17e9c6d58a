package wire

// Native fuzz targets for the frame codec, trace extension included, and
// the control-message reader: the decoders must be total (no panics on
// arbitrary bytes), every accepted frame must obey the header's claims,
// encode→decode must be the identity for both traced and untraced frames,
// and an accepted control message must re-encode to the bytes it came from.
// Run with `go test -fuzz FuzzDecodeFrameTrace ./internal/wire` etc.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func FuzzDecodeFrameTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, []byte("payload")))
	traced := AppendTracedFrame(nil, []byte("payload"), 0x00000007_0000002a)
	f.Add(traced)
	f.Add(traced[:FrameHeaderLen])               // flag set, extension missing
	f.Add(traced[:FrameHeaderLen+TraceExtLen-1]) // truncated extension
	f.Add(traced[:len(traced)-1])                // truncated payload
	badKind := append([]byte(nil), traced...)
	badKind[3] = frameFlagTrace | 99
	f.Add(badKind)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, trace, err := DecodeFrameTrace(data)
		if err != nil {
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		ext := 0
		if data[3]&frameFlagTrace != 0 {
			ext = TraceExtLen
			if trace == 0 {
				// A set flag with an all-zero ID is legal on the wire; the
				// decoder just reports it as untraced. Nothing more to check.
				_ = trace
			}
		} else if trace != 0 {
			t.Fatalf("trace %#x reported without the flag bit", trace)
		}
		if len(payload) > len(data)-FrameHeaderLen-ext {
			t.Fatalf("payload %d longer than frame allows", len(payload))
		}
		// The plain decoder must agree on the payload.
		plain, perr := DecodeFrame(data[:FrameHeaderLen+ext+len(payload)])
		if perr != nil || !bytes.Equal(plain, payload) {
			t.Fatalf("DecodeFrame disagrees: %q, %v", plain, perr)
		}
	})
}

// countingReader counts the bytes a reader hands out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadMsg feeds arbitrary bytes to the control-message reader: it must
// never panic, never read past the length the message declares, and an
// envelope it accepts must re-encode to exactly the bytes it read.
func FuzzReadMsg(f *testing.F) {
	for _, env := range []*Envelope{
		{Type: MsgHello, Seq: 1, Name: "smux-1"},
		{Type: MsgAck, Seq: 3, Err: "nope"},
		{Type: MsgDeltaPush, Seq: 4, Name: "ctl-1", Term: 1, Epoch: 2, Delta: []byte{0xDD, 3, 0, 1, 2, 0}},
		{Type: MsgDeltaPush, Seq: 6, Name: "ctl-1", Term: 3, Epoch: 7}, // a probe: no delta
		{Type: MsgAck, Seq: 4, Term: 1, Epoch: 2, Err: "epoch gap"},
		{Type: MsgSnapshotRequest, Seq: 5, Name: "duetctl"},
		{Type: MsgAck, Seq: 5, Name: "ctl-1", Term: 3, Epoch: 7, Delta: []byte{0xDD, 3, 1, 0, 7, 0}}, // a snapshot
	} {
		msg, err := appendMsg(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
		f.Add(msg[:len(msg)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, controlVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		var buf []byte
		var env Envelope
		err := readMsg(cr, &buf, &env)
		if len(data) >= 4 {
			if declared := 4 + int(binary.BigEndian.Uint32(data)); cr.n > declared {
				t.Fatalf("read %d bytes of a %d-byte message", cr.n, declared)
			}
		}
		if err != nil {
			return
		}
		msg, err := appendMsg(nil, &env)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		if !bytes.Equal(msg, data[:cr.n]) {
			t.Fatalf("accepted envelope re-encodes differently:\n got %x\nwant %x", msg, data[:cr.n])
		}
	})
}

func FuzzTracedFrameRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte("a raw ipv4 packet goes here"), uint64(1))
	f.Add([]byte("p"), uint64(0xffffffff_ffffffff))

	f.Fuzz(func(t *testing.T, payload []byte, trace uint64) {
		if len(payload) > MaxFramePayload {
			return
		}
		frame := AppendTracedFrame(nil, payload, trace)
		if trace == 0 {
			// Unsampled frames must be byte-identical to the pre-trace format.
			if !bytes.Equal(frame, AppendFrame(nil, payload)) {
				t.Fatal("trace=0 frame differs from the legacy format")
			}
		}
		got, gotTrace, err := DecodeFrameTrace(frame)
		if err != nil {
			t.Fatalf("decode own frame: %v", err)
		}
		if gotTrace != trace {
			t.Fatalf("trace %#x, want %#x", gotTrace, trace)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload mangled by frame round trip")
		}
	})
}

// FuzzReadBurst feeds the receive split arbitrary (read, segment size, MTU)
// triples: it must walk any read to its end, take every datagram but the
// last at the segment size, cut no frame longer than the MTU, and lose
// nothing it did not cut — each frame followed by what was cut off it
// concatenates back to the read, so with no datagram over the MTU the
// frames alone do.
func FuzzReadBurst(f *testing.F) {
	f.Add(make([]byte, 66), uint16(0), uint16(2048))
	f.Add(make([]byte, 66), uint16(66), uint16(2048))
	f.Add(make([]byte, 3*66+10), uint16(66), uint16(2048))
	f.Add(make([]byte, 66), uint16(2048), uint16(2048))
	f.Add(make([]byte, 3000), uint16(0), uint16(2048))
	f.Add([]byte{}, uint16(0), uint16(1))

	f.Fuzz(func(t *testing.T, read []byte, seg, mtu uint16) {
		m := max(int(mtu), 1) // a dataplane's MTU is positive
		var joined []byte
		rest := read
		for frames := 1; ; frames++ {
			if frames > len(read)+1 {
				t.Fatalf("%d frames out of a %d-byte read", frames, len(read))
			}
			frame, next := nextFrame(rest, int(seg), m)
			took := rest[:len(rest)-len(next)]
			if len(frame) != min(len(took), m) || !bytes.Equal(frame, took[:len(frame)]) {
				t.Fatalf("frame %d: %d bytes of a %d-byte datagram, MTU %d", frames, len(frame), len(took), m)
			}
			if len(next) > 0 && len(took) != int(seg) {
				t.Fatalf("frame %d: a %d-byte datagram before the last, segment size %d", frames, len(took), seg)
			}
			joined = append(append(joined, frame...), took[len(frame):]...)
			if rest = next; len(rest) == 0 {
				break
			}
		}
		if !bytes.Equal(joined, read) {
			t.Fatalf("frames and cuts make %x, want the read %x", joined, read)
		}
	})
}
