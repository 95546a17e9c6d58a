// The delta wire encoding: a compact, versioned, deterministic binary
// format. One Delta has exactly one encoding (field order is fixed, VIP
// states carry their collections sorted), so byte comparison doubles as
// semantic comparison for replicated logs. The decoder is hardened against
// adversarial input — every count is bounded by the remaining bytes, every
// enum is range-checked, and trailing garbage is an error — and fuzzed by
// FuzzDeltaDecode / FuzzDeltaRoundTrip (see Makefile fuzz-smoke).
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"

	"duet/internal/packet"
	"duet/internal/steer"
)

// Codec framing.
const (
	// Magic prefixes every encoded delta: 0xDD, then the format version.
	magicByte = 0xDD
	// codecVersion follows the magic; a delta of another version is
	// refused, never misread. Version 2 dropped version 1's outbound
	// port-range grants (§5.2): the block list of every VIP state and the
	// op kinds 9 and 10.
	codecVersion = 2

	flagSnapshot = 1 << 0
)

// ErrCodec wraps all decode failures.
var ErrCodec = errors.New("delta: bad encoding")

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}
func (e *encoder) addr(a packet.Addr) { e.uvarint(uint64(a)) }

// sw encodes a switch ID with Unassigned (-1) as 0 and s as s+1.
func (e *encoder) sw(s int32) { e.uvarint(uint64(s + 1)) }

func (e *encoder) vipState(v *VIPState) {
	e.addr(v.Addr)
	e.u8(v.Flags)
	e.u8(uint8(v.Mode))
	e.u8(uint8(v.Tier))
	e.sw(v.Switch)
	e.uvarint(uint64(len(v.Backends)))
	for _, b := range v.Backends {
		e.addr(b.Addr)
		e.uvarint(uint64(b.Weight))
	}
}

// Encode serializes the delta.
func (d *Delta) Encode() []byte {
	e := &encoder{buf: make([]byte, 0, 64+32*len(d.Ops))}
	e.u8(magicByte)
	e.u8(codecVersion)
	var flags uint8
	if d.Snapshot {
		flags |= flagSnapshot
	}
	e.u8(flags)
	e.uvarint(d.FromEpoch)
	e.uvarint(d.ToEpoch)
	e.uvarint(uint64(len(d.Ops)))
	for i := range d.Ops {
		op := &d.Ops[i]
		e.u8(uint8(op.Kind))
		e.addr(op.VIP)
		switch op.Kind {
		case OpVIPAdd, OpVIPRemove:
			e.vipState(op.State)
		case OpMove:
			e.u8(uint8(op.OldTier))
			e.sw(op.OldSwitch)
			e.u8(uint8(op.NewTier))
			e.sw(op.NewSwitch)
		case OpDIPAdd:
			e.addr(op.DIP)
			e.uvarint(uint64(op.NewWeight))
		case OpDIPRemove:
			e.addr(op.DIP)
			e.uvarint(uint64(op.OldWeight))
		case OpDIPWeight:
			e.addr(op.DIP)
			e.uvarint(uint64(op.OldWeight))
			e.uvarint(uint64(op.NewWeight))
		case OpMode:
			e.u8(uint8(op.OldMode))
			e.u8(uint8(op.NewMode))
		case OpFlags:
			e.u8(op.OldFlags)
			e.u8(op.NewFlags)
		}
	}
	return e.buf
}

type decoder struct{ rest []byte }

func (d *decoder) u8() (uint8, error) {
	if len(d.rest) == 0 {
		return 0, fmt.Errorf("%w: truncated", ErrCodec)
	}
	v := d.rest[0]
	d.rest = d.rest[1:]
	return v, nil
}

// uvarint reads a minimal-width uvarint: a wider form of the same value (a
// trailing zero group) is rejected, so accepted bytes re-encode to
// themselves.
func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.rest)
	if n <= 0 || n > 1 && d.rest[n-1] == 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCodec)
	}
	d.rest = d.rest[n:]
	return v, nil
}

func (d *decoder) addr() (packet.Addr, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 0xFFFFFFFF {
		return 0, fmt.Errorf("%w: address overflows IPv4", ErrCodec)
	}
	return packet.Addr(v), nil
}

func (d *decoder) sw() (int32, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= 1<<31 {
		return 0, fmt.Errorf("%w: switch ID overflow", ErrCodec)
	}
	return int32(v) - 1, nil
}

func (d *decoder) mode() (steer.Mode, error) {
	v, err := d.u8()
	if err != nil {
		return 0, err
	}
	if v > uint8(steer.ModeHybrid) {
		return 0, fmt.Errorf("%w: unknown steer mode %d", ErrCodec, v)
	}
	return steer.Mode(v), nil
}

func (d *decoder) tier() (Tier, error) {
	v, err := d.u8()
	if err != nil {
		return 0, err
	}
	if v > uint8(TierNMux) {
		return 0, fmt.Errorf("%w: unknown tier %d", ErrCodec, v)
	}
	return Tier(v), nil
}

func (d *decoder) flags() (uint8, error) {
	v, err := d.u8()
	if err != nil {
		return 0, err
	}
	if v&^flagsMask != 0 {
		return 0, fmt.Errorf("%w: unknown VIP flags %#x", ErrCodec, v)
	}
	return v, nil
}

// count reads a collection length and bounds it by the remaining bytes
// (every element costs at least minBytes), so a hostile length cannot force
// a huge allocation.
func (d *decoder) count(minBytes int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.rest)/minBytes) {
		return 0, fmt.Errorf("%w: count %d exceeds payload", ErrCodec, v)
	}
	return int(v), nil
}

func (d *decoder) vipState() (*VIPState, error) {
	v := &VIPState{}
	var err error
	if v.Addr, err = d.addr(); err != nil {
		return nil, err
	}
	if v.Flags, err = d.flags(); err != nil {
		return nil, err
	}
	if v.Mode, err = d.mode(); err != nil {
		return nil, err
	}
	if v.Tier, err = d.tier(); err != nil {
		return nil, err
	}
	if v.Switch, err = d.sw(); err != nil {
		return nil, err
	}
	nb, err := d.count(2)
	if err != nil {
		return nil, err
	}
	v.Backends = make([]Backend, nb)
	for i := range v.Backends {
		if v.Backends[i].Addr, err = d.addr(); err != nil {
			return nil, err
		}
		w, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if w > 0xFFFFFFFF {
			return nil, fmt.Errorf("%w: weight overflow", ErrCodec)
		}
		v.Backends[i].Weight = uint32(w)
		if i > 0 && v.Backends[i].Addr <= v.Backends[i-1].Addr {
			return nil, fmt.Errorf("%w: backends not strictly sorted", ErrCodec)
		}
	}
	if len(v.Backends) == 0 {
		v.Backends = nil
	}
	return v, nil
}

// Decode parses an encoded delta. It rejects unknown versions, unknown op
// kinds, out-of-range enums, unsorted collections, non-minimal varints, and
// trailing bytes. Decode(Encode(d)) is the identity, and so is
// Encode(Decode(b)) for any accepted b: a log that keeps the bytes it
// received keeps what it would have encoded.
func Decode(buf []byte) (*Delta, error) {
	dec := &decoder{rest: buf}
	m, err := dec.u8()
	if err != nil {
		return nil, err
	}
	if m != magicByte {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCodec, m)
	}
	ver, err := dec.u8()
	if err != nil {
		return nil, err
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCodec, ver)
	}
	fl, err := dec.u8()
	if err != nil {
		return nil, err
	}
	if fl&^uint8(flagSnapshot) != 0 {
		return nil, fmt.Errorf("%w: unknown delta flags %#x", ErrCodec, fl)
	}
	out := &Delta{Snapshot: fl&flagSnapshot != 0}
	if out.FromEpoch, err = dec.uvarint(); err != nil {
		return nil, err
	}
	if out.ToEpoch, err = dec.uvarint(); err != nil {
		return nil, err
	}
	if out.Snapshot && out.FromEpoch != 0 {
		return nil, fmt.Errorf("%w: snapshot with nonzero FromEpoch", ErrCodec)
	}
	nops, err := dec.count(2)
	if err != nil {
		return nil, err
	}
	if nops > 0 {
		out.Ops = make([]Op, nops)
	}
	for i := range out.Ops {
		op := &out.Ops[i]
		k, err := dec.u8()
		if err != nil {
			return nil, err
		}
		op.Kind = OpKind(k)
		if op.VIP, err = dec.addr(); err != nil {
			return nil, err
		}
		switch op.Kind {
		case OpVIPAdd, OpVIPRemove:
			if op.State, err = dec.vipState(); err != nil {
				return nil, err
			}
			if op.State.Addr != op.VIP {
				return nil, fmt.Errorf("%w: op VIP %s carries state for %s", ErrCodec, op.VIP, op.State.Addr)
			}
		case OpMove:
			if op.OldTier, err = dec.tier(); err != nil {
				return nil, err
			}
			if op.OldSwitch, err = dec.sw(); err != nil {
				return nil, err
			}
			if op.NewTier, err = dec.tier(); err != nil {
				return nil, err
			}
			if op.NewSwitch, err = dec.sw(); err != nil {
				return nil, err
			}
		case OpDIPAdd:
			if op.DIP, err = dec.addr(); err != nil {
				return nil, err
			}
			w, err := dec.uvarint()
			if err != nil {
				return nil, err
			}
			if w > 0xFFFFFFFF {
				return nil, fmt.Errorf("%w: weight overflow", ErrCodec)
			}
			op.NewWeight = uint32(w)
		case OpDIPRemove:
			if op.DIP, err = dec.addr(); err != nil {
				return nil, err
			}
			w, err := dec.uvarint()
			if err != nil {
				return nil, err
			}
			if w > 0xFFFFFFFF {
				return nil, fmt.Errorf("%w: weight overflow", ErrCodec)
			}
			op.OldWeight = uint32(w)
		case OpDIPWeight:
			if op.DIP, err = dec.addr(); err != nil {
				return nil, err
			}
			ow, err := dec.uvarint()
			if err != nil {
				return nil, err
			}
			nw, err := dec.uvarint()
			if err != nil {
				return nil, err
			}
			if ow > 0xFFFFFFFF || nw > 0xFFFFFFFF {
				return nil, fmt.Errorf("%w: weight overflow", ErrCodec)
			}
			op.OldWeight, op.NewWeight = uint32(ow), uint32(nw)
		case OpMode:
			if op.OldMode, err = dec.mode(); err != nil {
				return nil, err
			}
			if op.NewMode, err = dec.mode(); err != nil {
				return nil, err
			}
		case OpFlags:
			if op.OldFlags, err = dec.flags(); err != nil {
				return nil, err
			}
			if op.NewFlags, err = dec.flags(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown op kind %d", ErrCodec, k)
		}
	}
	if len(dec.rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(dec.rest))
	}
	return out, nil
}
