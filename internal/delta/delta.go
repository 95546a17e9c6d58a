// Package delta is the control plane's replication currency: a canonical,
// versioned diff between two cluster configuration states (the VIP
// population with backends, weights, steer modes, the NIC flag and the
// per-tier placement — everything the controller pushes to the fleet).
// Each traffic epoch the leader computes one Delta, appends it to its Log,
// and ships it over the control channel (wire.MsgDeltaPush); followers and
// standby controllers Apply it to their mirror. Because every op carries
// both the old and the new value (WAL-style undo/redo), a Delta is
// mechanically invertible, and a snapshot is just a Delta from the empty
// state — the "full config push" of the old anti-entropy loop survives only
// as the recovery path for peers that fell behind the Log's compaction
// horizon.
//
// Determinism contract: Diff emits ops in one canonical order (VIPs by
// address; within a VIP: flags, mode, move, DIP removes, weight changes,
// DIP adds — each address-sorted), and the binary codec (codec.go) has
// exactly one encoding per Delta. Two controllers that agree on the states
// therefore agree on the bytes, which is what lets the soak test assert
// zero full re-pushes across a leader failover.
package delta

import (
	"fmt"
	"sort"

	"duet/internal/packet"
	"duet/internal/steer"
)

// Tier is a VIP's serving tier. The values mirror internal/assign's Tier
// constants (smux=0, hmux=1, nmux=2) but are redeclared here so the wire
// encoding does not depend on the placement package.
type Tier uint8

// Tiers, in assign order.
const (
	TierSMux Tier = iota
	TierHMux
	TierNMux
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierHMux:
		return "hmux"
	case TierNMux:
		return "nmux"
	default:
		return "smux"
	}
}

// Unassigned is the Switch value of a VIP not homed on an HMux.
const Unassigned int32 = -1

// Backend is one DIP backing a VIP.
type Backend struct {
	Addr   packet.Addr
	Weight uint32
}

// VIP flag bits (VIPState.Flags, Op old/new flags).
const (
	// FlagNic also puts the VIP in the NIC match tables, beside whatever its
	// Tier says: a NIC VIP at TierHMux is in the switch tables and on the
	// NIC, which one Tier value cannot say.
	FlagNic uint8 = 1 << 0

	flagsMask = FlagNic
)

// VIPState is one VIP's full replicated configuration.
type VIPState struct {
	Addr     packet.Addr
	Backends []Backend // sorted by Addr, unique
	Mode     steer.Mode
	Flags    uint8 // FlagNic
	// Tier is where the VIP is served, and the one placement fact a switch
	// reads: only a TierHMux VIP is in the switch tables.
	Tier   Tier
	Switch int32 // HMux home, or Unassigned
}

// Clone deep-copies the VIP state.
func (v *VIPState) Clone() *VIPState {
	c := *v
	c.Backends = append([]Backend(nil), v.Backends...)
	return &c
}

// Equal reports deep equality.
func (v *VIPState) Equal(o *VIPState) bool {
	if v.Addr != o.Addr || v.Mode != o.Mode || v.Flags != o.Flags ||
		v.Tier != o.Tier || v.Switch != o.Switch ||
		len(v.Backends) != len(o.Backends) {
		return false
	}
	for i := range v.Backends {
		if v.Backends[i] != o.Backends[i] {
			return false
		}
	}
	return true
}

// backendIdx returns the index of dip in the sorted backend slice, or -1.
func (v *VIPState) backendIdx(dip packet.Addr) int {
	i := sort.Search(len(v.Backends), func(i int) bool { return v.Backends[i].Addr >= dip })
	if i < len(v.Backends) && v.Backends[i].Addr == dip {
		return i
	}
	return -1
}

// State is a full configuration at one epoch.
type State struct {
	Epoch uint64
	VIPs  map[packet.Addr]*VIPState
}

// NewState returns the empty configuration at epoch 0.
func NewState() *State {
	return &State{VIPs: make(map[packet.Addr]*VIPState)}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{Epoch: s.Epoch, VIPs: make(map[packet.Addr]*VIPState, len(s.VIPs))}
	for a, v := range s.VIPs {
		c.VIPs[a] = v.Clone()
	}
	return c
}

// Reset empties the state (snapshot application).
func (s *State) Reset() {
	s.Epoch = 0
	s.VIPs = make(map[packet.Addr]*VIPState)
}

// Addrs returns the VIP addresses in sorted order.
func (s *State) Addrs() []packet.Addr {
	out := make([]packet.Addr, 0, len(s.VIPs))
	for a := range s.VIPs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OpKind discriminates delta operations.
type OpKind uint8

// The operation kinds. Every kind carries enough old-state to invert. The
// values travel on the wire and are never reused: 9 and 10 were the
// outbound port-range grant add/remove (§5.2), which no controller produced.
const (
	OpVIPAdd    OpKind = iota + 1 // State = the added VIP
	OpVIPRemove                   // State = the removed VIP (full snapshot)
	OpMove                        // Old/NewTier, Old/NewSwitch
	OpDIPAdd                      // DIP, NewWeight
	OpDIPRemove                   // DIP, OldWeight
	OpDIPWeight                   // DIP, OldWeight → NewWeight
	OpMode                        // OldMode → NewMode
	OpFlags                       // OldFlags → NewFlags
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpVIPAdd:
		return "vip-add"
	case OpVIPRemove:
		return "vip-remove"
	case OpMove:
		return "move"
	case OpDIPAdd:
		return "dip-add"
	case OpDIPRemove:
		return "dip-remove"
	case OpDIPWeight:
		return "dip-weight"
	case OpMode:
		return "mode"
	case OpFlags:
		return "flags"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one configuration mutation. Unused fields are zero; State is set
// only for OpVIPAdd/OpVIPRemove.
type Op struct {
	Kind OpKind
	VIP  packet.Addr

	State *VIPState

	DIP                packet.Addr
	OldWeight          uint32
	NewWeight          uint32
	OldMode, NewMode   steer.Mode
	OldFlags, NewFlags uint8
	OldTier, NewTier   Tier
	OldSwitch          int32
	NewSwitch          int32
}

// Delta is the diff between the configuration at FromEpoch and at ToEpoch.
type Delta struct {
	// Snapshot marks a full-state delta: Apply resets the receiver first
	// and FromEpoch is 0. This is the recovery path — a snapshot push IS
	// the old "full config push", expressed in the same type.
	Snapshot           bool
	FromEpoch, ToEpoch uint64
	Ops                []Op
}

// Diff computes the canonical delta turning from into to. Both states are
// read-only; the result's ops reference cloned VIP states.
func Diff(from, to *State) *Delta {
	d := &Delta{FromEpoch: from.Epoch, ToEpoch: to.Epoch}
	// Sorted union of the two populations.
	addrs := from.Addrs()
	for _, a := range to.Addrs() {
		if _, ok := from.VIPs[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	for _, a := range addrs {
		f, inFrom := from.VIPs[a]
		t, inTo := to.VIPs[a]
		switch {
		case !inFrom:
			d.Ops = append(d.Ops, Op{Kind: OpVIPAdd, VIP: a, State: t.Clone()})
		case !inTo:
			d.Ops = append(d.Ops, Op{Kind: OpVIPRemove, VIP: a, State: f.Clone()})
		default:
			diffVIP(d, f, t)
		}
	}
	return d
}

// diffVIP appends the in-place mutation ops for one VIP, in canonical order.
func diffVIP(d *Delta, f, t *VIPState) {
	a := f.Addr
	if f.Flags != t.Flags {
		d.Ops = append(d.Ops, Op{Kind: OpFlags, VIP: a, OldFlags: f.Flags, NewFlags: t.Flags})
	}
	if f.Mode != t.Mode {
		d.Ops = append(d.Ops, Op{Kind: OpMode, VIP: a, OldMode: f.Mode, NewMode: t.Mode})
	}
	if f.Tier != t.Tier || f.Switch != t.Switch {
		d.Ops = append(d.Ops, Op{
			Kind: OpMove, VIP: a,
			OldTier: f.Tier, NewTier: t.Tier,
			OldSwitch: f.Switch, NewSwitch: t.Switch,
		})
	}
	// Backends: merge-walk the two sorted slices. Removes before adds so an
	// applying receiver never holds two weights for one DIP.
	var adds []Backend
	i, j := 0, 0
	for i < len(f.Backends) || j < len(t.Backends) {
		switch {
		case j >= len(t.Backends) || (i < len(f.Backends) && f.Backends[i].Addr < t.Backends[j].Addr):
			d.Ops = append(d.Ops, Op{Kind: OpDIPRemove, VIP: a, DIP: f.Backends[i].Addr, OldWeight: f.Backends[i].Weight})
			i++
		case i >= len(f.Backends) || t.Backends[j].Addr < f.Backends[i].Addr:
			adds = append(adds, t.Backends[j])
			j++
		default:
			if f.Backends[i].Weight != t.Backends[j].Weight {
				d.Ops = append(d.Ops, Op{
					Kind: OpDIPWeight, VIP: a, DIP: f.Backends[i].Addr,
					OldWeight: f.Backends[i].Weight, NewWeight: t.Backends[j].Weight,
				})
			}
			i, j = i+1, j+1
		}
	}
	for _, b := range adds {
		d.Ops = append(d.Ops, Op{Kind: OpDIPAdd, VIP: a, DIP: b.Addr, NewWeight: b.Weight})
	}
}

// SnapshotOf expresses the full state as a snapshot delta — the recovery
// push for a peer behind the compaction horizon.
func SnapshotOf(s *State) *Delta {
	d := Diff(NewState(), s)
	d.Snapshot = true
	d.FromEpoch = 0
	d.ToEpoch = s.Epoch
	return d
}

// Apply mutates s by the delta. Every op's old values are preconditions;
// any mismatch (wrong epoch, unknown VIP, diverged weight...) aborts with
// an error describing the first violation and leaves s as it was: a failed
// snapshot keeps the previous population, and a failed diff undoes the ops
// it had already applied. A receiver's retry therefore meets the same state
// the rejected delta did.
func (d *Delta) Apply(s *State) error {
	prev := *s
	if d.Snapshot {
		s.Reset() // a fresh map, so prev keeps the old population intact
	} else if s.Epoch != d.FromEpoch {
		return fmt.Errorf("delta: apply from epoch %d onto state at epoch %d", d.FromEpoch, s.Epoch)
	}
	for i := range d.Ops {
		if err := applyOp(s, &d.Ops[i]); err != nil {
			err = fmt.Errorf("delta: op %d (%s %s): %w", i, d.Ops[i].Kind, d.Ops[i].VIP, err)
			if d.Snapshot {
				*s = prev
			} else if uerr := d.undo(s, i); uerr != nil {
				return fmt.Errorf("%w; undoing the %d applied ops failed, state is inconsistent: %v", err, i, uerr)
			}
			return err
		}
	}
	s.Epoch = d.ToEpoch
	return nil
}

// undo reverts the applied prefix d.Ops[:n]. Every op carries its old
// values, so the prefix inverts exactly and the success path never has to
// copy the state to stay atomic.
func (d *Delta) undo(s *State, n int) error {
	inv, err := (&Delta{Ops: d.Ops[:n]}).Invert()
	if err != nil {
		return err
	}
	for i := range inv.Ops {
		if err := applyOp(s, &inv.Ops[i]); err != nil {
			return err
		}
	}
	return nil
}

func applyOp(s *State, op *Op) error {
	if op.Kind == OpVIPAdd {
		if _, ok := s.VIPs[op.VIP]; ok {
			return fmt.Errorf("VIP already present")
		}
		if op.State == nil {
			return fmt.Errorf("add without state")
		}
		s.VIPs[op.VIP] = op.State.Clone()
		return nil
	}
	v, ok := s.VIPs[op.VIP]
	if !ok {
		return fmt.Errorf("unknown VIP")
	}
	switch op.Kind {
	case OpVIPRemove:
		if op.State == nil || !v.Equal(op.State) {
			return fmt.Errorf("remove precondition: state diverged")
		}
		delete(s.VIPs, op.VIP)
	case OpMove:
		if v.Tier != op.OldTier || v.Switch != op.OldSwitch {
			return fmt.Errorf("move precondition: at %s/%d, op expects %s/%d", v.Tier, v.Switch, op.OldTier, op.OldSwitch)
		}
		v.Tier, v.Switch = op.NewTier, op.NewSwitch
	case OpDIPAdd:
		if v.backendIdx(op.DIP) >= 0 {
			return fmt.Errorf("DIP %s already present", op.DIP)
		}
		v.Backends = append(v.Backends, Backend{Addr: op.DIP, Weight: op.NewWeight})
		sort.Slice(v.Backends, func(i, j int) bool { return v.Backends[i].Addr < v.Backends[j].Addr })
	case OpDIPRemove:
		i := v.backendIdx(op.DIP)
		if i < 0 || v.Backends[i].Weight != op.OldWeight {
			return fmt.Errorf("DIP %s remove precondition failed", op.DIP)
		}
		v.Backends = append(v.Backends[:i], v.Backends[i+1:]...)
	case OpDIPWeight:
		i := v.backendIdx(op.DIP)
		if i < 0 || v.Backends[i].Weight != op.OldWeight {
			return fmt.Errorf("DIP %s weight precondition failed", op.DIP)
		}
		v.Backends[i].Weight = op.NewWeight
	case OpMode:
		if v.Mode != op.OldMode {
			return fmt.Errorf("mode precondition: %v, op expects %v", v.Mode, op.OldMode)
		}
		v.Mode = op.NewMode
	case OpFlags:
		if v.Flags != op.OldFlags {
			return fmt.Errorf("flags precondition: %#x, op expects %#x", v.Flags, op.OldFlags)
		}
		v.Flags = op.NewFlags
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}

// Invert returns the delta undoing d: old and new values swapped, ops
// reversed, epochs swapped. Snapshot deltas are not invertible (the
// pre-snapshot state is not recorded).
func (d *Delta) Invert() (*Delta, error) {
	if d.Snapshot {
		return nil, fmt.Errorf("delta: snapshot deltas are not invertible")
	}
	inv := &Delta{FromEpoch: d.ToEpoch, ToEpoch: d.FromEpoch, Ops: make([]Op, len(d.Ops))}
	for i := range d.Ops {
		op := d.Ops[len(d.Ops)-1-i] // copy
		switch op.Kind {
		case OpVIPAdd:
			op.Kind = OpVIPRemove
		case OpVIPRemove:
			op.Kind = OpVIPAdd
		case OpMove:
			op.OldTier, op.NewTier = op.NewTier, op.OldTier
			op.OldSwitch, op.NewSwitch = op.NewSwitch, op.OldSwitch
		case OpDIPAdd:
			op.Kind = OpDIPRemove
			op.OldWeight, op.NewWeight = op.NewWeight, 0
		case OpDIPRemove:
			op.Kind = OpDIPAdd
			op.OldWeight, op.NewWeight = 0, op.OldWeight
		case OpDIPWeight:
			op.OldWeight, op.NewWeight = op.NewWeight, op.OldWeight
		case OpMode:
			op.OldMode, op.NewMode = op.NewMode, op.OldMode
		case OpFlags:
			op.OldFlags, op.NewFlags = op.NewFlags, op.OldFlags
		default:
			return nil, fmt.Errorf("delta: cannot invert op kind %d", op.Kind)
		}
		inv.Ops[i] = op
	}
	return inv, nil
}
