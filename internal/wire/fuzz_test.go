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
		{Type: MsgHello, Seq: 1, Role: RoleSMux, Name: "smux-1"},
		{Type: MsgHealthReport, Seq: 2, Name: "host-1", Health: []DIPHealth{{DIP: 0x64000001, Healthy: true}, {DIP: 0x64000002}}},
		{Type: MsgAck, Seq: 3, Err: "nope"},
		{Type: MsgDeltaPush, Seq: 4, Name: "ctl-1", Term: 1, Epoch: 2, Delta: []byte{0xDD, 1, 0, 1, 2, 0}},
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
