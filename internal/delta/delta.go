// Package delta is the control plane's replication currency: a canonical,
// versioned diff between two cluster configuration states (the VIP
// population with backends, weights, steer modes, the NIC flag and the
// per-tier placement — everything the controller pushes to the fleet).
// Each traffic epoch the leader computes one Delta, appends it to its Log,
// and ships it over the control channel (wire.MsgDeltaPush); followers and
// standby controllers Apply it to their mirror. A Delta is one op per VIP
// it touches, carrying the VIP's old state, the precondition a receiver
// checks, and its new state, which replaces it. A snapshot is just a Delta
// from the empty state — the "full config push" of the old anti-entropy
// loop survives only as the recovery path for peers that fell behind the
// Log's compaction horizon.
//
// Determinism contract: Diff emits its ops in one canonical order (by VIP
// address, backends address-sorted within each state), and the binary
// codec (codec.go) has exactly one encoding per Delta. Two controllers that
// agree on the states therefore agree on the bytes, which is what lets the
// soak test assert zero full re-pushes across a leader failover.
package delta

import (
	"fmt"
	"sort"

	"duet/internal/packet"
	"duet/internal/service"
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

// Backend is one DIP backing a VIP: the service config's own type, so a
// replicated backend list is handed to the muxes' planner as it is.
type Backend = service.Backend

// VIP flag bits (VIPState.Flags).
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

// State is a full configuration at one epoch. Its VIP states are replaced,
// never edited in place: Apply installs a delta's new states without
// copying them, so a state may be shared with the delta that carried it,
// and a caller that wants to edit one edits a Clone.
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

// Op replaces one VIP's state: Old is what the receiver must hold before,
// New what it holds after, and nil means absent — an add has no Old, a
// removal no New. Both states, when present, are for VIP.
type Op struct {
	VIP      packet.Addr
	Old, New *VIPState
}

// Delta is the diff between the configuration at FromEpoch and at ToEpoch.
type Delta struct {
	// Snapshot marks a full-state delta: Apply resets the receiver first
	// and FromEpoch is 0. This is the recovery path — a snapshot push IS
	// the old "full config push", expressed in the same type.
	Snapshot           bool
	FromEpoch, ToEpoch uint64
	Ops                []Op // strictly ascending by VIP
}

// Diff computes the canonical delta turning from into to: one op per VIP
// whose state differs, in address order. Both states are read-only; the
// ops carry clones.
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
		f, t := from.VIPs[a], to.VIPs[a]
		if f != nil && t != nil && f.Equal(t) {
			continue
		}
		op := Op{VIP: a}
		if f != nil {
			op.Old = f.Clone()
		}
		if t != nil {
			op.New = t.Clone()
		}
		d.Ops = append(d.Ops, op)
	}
	return d
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

// Apply mutates s by the delta. It checks every op before it changes
// anything: the epoch (a snapshot has none to match), the address order,
// and each op's Old against what s holds (a snapshot checks against the
// empty state). Any violation aborts with an error naming the first one
// and leaves s as it was, so a receiver's retry meets the same state the
// rejected delta did. Apply then installs each New as it is, without a copy.
func (d *Delta) Apply(s *State) error {
	if !d.Snapshot && s.Epoch != d.FromEpoch {
		return fmt.Errorf("delta: apply from epoch %d onto state at epoch %d", d.FromEpoch, s.Epoch)
	}
	for i := range d.Ops {
		if err := d.check(s, i); err != nil {
			return fmt.Errorf("delta: op %d (%s): %w", i, d.Ops[i].VIP, err)
		}
	}
	if d.Snapshot {
		s.Reset()
	}
	for _, op := range d.Ops {
		if op.New == nil {
			delete(s.VIPs, op.VIP)
		} else {
			s.VIPs[op.VIP] = op.New
		}
	}
	s.Epoch = d.ToEpoch
	return nil
}

// check is op i's precondition on s.
func (d *Delta) check(s *State, i int) error {
	op := &d.Ops[i]
	if i > 0 && op.VIP <= d.Ops[i-1].VIP {
		return fmt.Errorf("VIPs not strictly ascending")
	}
	if op.Old == nil && op.New == nil {
		return fmt.Errorf("no state")
	}
	for _, v := range [2]*VIPState{op.Old, op.New} {
		if v != nil && v.Addr != op.VIP {
			return fmt.Errorf("carries state for %s", v.Addr)
		}
	}
	var cur *VIPState
	if !d.Snapshot {
		cur = s.VIPs[op.VIP]
	}
	switch {
	case op.Old == nil && cur != nil:
		return fmt.Errorf("VIP already present")
	case op.Old != nil && cur == nil:
		return fmt.Errorf("unknown VIP")
	case op.Old != nil && !cur.Equal(op.Old):
		return fmt.Errorf("state diverged")
	}
	return nil
}
