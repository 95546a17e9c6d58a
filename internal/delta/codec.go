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
	// refused, never misread. Version 3 writes each op as one VIP's old and
	// new state. Version 2 wrote eight per-field op kinds (VIP add and
	// remove, move, DIP add, remove and weight, mode, flags), and version 1
	// those plus outbound port-range grants (§5.2): a block list in every
	// VIP state and the op kinds 9 and 10.
	codecVersion = 3

	flagSnapshot = 1 << 0

	// An op's presence byte: which of its two states follow it.
	hasOld = 1 << 0
	hasNew = 1 << 1
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

// vipState encodes a state without its address, which is its op's VIP.
func (e *encoder) vipState(v *VIPState) {
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
	for _, op := range d.Ops {
		e.addr(op.VIP)
		var has uint8
		if op.Old != nil {
			has |= hasOld
		}
		if op.New != nil {
			has |= hasNew
		}
		e.u8(has)
		if op.Old != nil {
			e.vipState(op.Old)
		}
		if op.New != nil {
			e.vipState(op.New)
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

// vipState decodes a state the encoder wrote for the VIP at addr.
func (d *decoder) vipState(addr packet.Addr) (*VIPState, error) {
	v := &VIPState{Addr: addr}
	var err error
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

// Decode parses an encoded delta. It rejects unknown versions, ops with
// neither state, snapshot ops with an old one, out-of-range enums, unsorted
// ops and backends, non-minimal varints, and trailing bytes. Decode(Encode(d)) is the identity, and so is
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
	nops, err := dec.count(7) // VIP, presence byte, a five-byte state at least
	if err != nil {
		return nil, err
	}
	if nops > 0 {
		out.Ops = make([]Op, nops)
	}
	for i := range out.Ops {
		op := &out.Ops[i]
		if op.VIP, err = dec.addr(); err != nil {
			return nil, err
		}
		if i > 0 && op.VIP <= out.Ops[i-1].VIP {
			return nil, fmt.Errorf("%w: ops not strictly ascending by VIP", ErrCodec)
		}
		has, err := dec.u8()
		if err != nil {
			return nil, err
		}
		if has == 0 || has&^(hasOld|hasNew) != 0 {
			return nil, fmt.Errorf("%w: bad op presence %#x", ErrCodec, has)
		}
		if out.Snapshot && has&hasOld != 0 {
			return nil, fmt.Errorf("%w: snapshot op with an old state", ErrCodec)
		}
		if has&hasOld != 0 {
			if op.Old, err = dec.vipState(op.VIP); err != nil {
				return nil, err
			}
		}
		if has&hasNew != 0 {
			if op.New, err = dec.vipState(op.VIP); err != nil {
				return nil, err
			}
		}
	}
	if len(dec.rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(dec.rest))
	}
	return out, nil
}
