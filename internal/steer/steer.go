// Package steer is the stateless 5-tuple→DIP resolution every mux tier
// shares (paper §3.3.1 — shared hashing is what keeps tier fall-through
// invisible to connections). It has two layers. Entry is one VIP's
// resolution record, keyed by the ECMP flow hash every tier computes: the
// HMux holds Entries in its host and TIP tables, the SMux and the NMux read
// them out of a Table. Table is an epoch-versioned, Maglev/Concury-style
// consistent lookup table of Entries published behind an atomic pointer.
//
// An Entry is a flat slot array (hash % Slots → DIP address) beside the
// backend index each slot serves, and this package is the only place a
// backend set becomes slots — so for a given VIP, backend list and mutation
// history, the steer table, the SMux, the NMux and the HMux pick the SAME
// DIP for the same 5-tuple by construction. Lookups are one atomic load, one
// map probe and one array index — zero allocations, no locks.
//
// Updates follow Concury's concise-structure discipline: a batch of ops
// (Table.Apply; a replicated delta is one batch) rebuilds the entries of the
// VIPs it installs, takes removed DIPs out of theirs in place (OpRemoveDIP),
// and publishes one new generation — the shared copy-on-write table of
// internal/addrmap, so every other VIP's entry and every untouched chunk of
// the index carry over — with a bumped epoch. Each op's new entry is derived
// once (Derive) and carried in the op, so every table a batch reaches
// installs the same entry: in a core.Cluster every SMux and every switch
// holding a VIP resolve it through one slot array. A rebuild moves most of a
// VIP's flows; because removal rewrites only the removed member's slots
// (resilient hashing, §5.1) and the fill is deterministic in the backend
// list, removing a DIP moves only its flows, and re-adding it returns the
// slot array exactly to its original state — flows that never hashed to the
// churned DIP never remap, which is what lets an SMux serve them statelessly
// across epochs.
//
// The table also keeps the generation before the latest slot-changing batch
// alive for a bounded drain window. A hybrid-mode SMux compares the current
// and previous pick for a flow and pins only the flows whose DIP would change
// across the epoch ("LB Scalability: stateful vs stateless" — a small
// stateful overlay instead of per-flow state for everything).
//
// Pins is the per-flow half beside it: the one flow-pin table every host mux
// keeps — the SMux connection table and hybrid overlay, the NIC's exact-flow
// region — sharded by the same flow hash and bounded by one table-wide cap.
package steer

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"duet/internal/addrmap"
	"duet/internal/ecmp"
	"duet/internal/packet"
	"duet/internal/service"
)

// Mode selects how an SMux resolves a VIP's flows against the steer table.
// The zero value is ModeStateful, today's behaviour.
type Mode uint8

const (
	// ModeStateful pins every flow in the SMux connection table on first
	// packet (Ananta §2.1). Strongest consistency, one table entry per flow.
	ModeStateful Mode = iota
	// ModeStateless resolves every packet through the steer table alone:
	// zero per-flow state. Consistent across epochs only as far as the
	// resilient table is (flows hashing to a churned DIP's slots remap).
	ModeStateless
	// ModeHybrid resolves through the steer table but pins, in a bounded
	// overlay, only the flows whose DIP would change across a table epoch;
	// pins expire once the flow goes idle or the table converges back.
	ModeHybrid

	numModes
)

// String returns the spec/flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeStateful:
		return "stateful"
	case ModeStateless:
		return "stateless"
	case ModeHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode parses the spec/flag spelling of a mode. The empty string parses
// to ModeStateful so specs that predate modes keep their behaviour.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "stateful":
		return ModeStateful, nil
	case "stateless":
		return ModeStateless, nil
	case "hybrid":
		return ModeHybrid, nil
	}
	return ModeStateful, fmt.Errorf("steer: unknown mode %q (want stateful|stateless|hybrid)", s)
}

// Modes lists every mode, for tests and tooling that sweep all of them.
func Modes() []Mode { return []Mode{ModeStateful, ModeStateless, ModeHybrid} }

// DefaultDrainWindow is how long (in clock seconds) the previous generation
// stays consultable after a slot-changing batch: long enough for every
// in-flight flow to show a packet (and get pinned by a hybrid SMux). It is
// not short against the control plane's pace: each slot-changing batch
// re-arms the window (the chain stays one generation deep, so a flow is
// compared with the table before the latest batch only — on the wire path
// the epoch before the latest delta), and under churn a drain is always open
// — bench/'s steer.drain_active_frac reads 1.0 on every workload (ROADMAP's
// PCC item).
const DefaultDrainWindow = 30.0

// Errors returned by table operations.
var (
	ErrVIPExists       = errors.New("steer: VIP already present")
	ErrVIPNotFound     = errors.New("steer: VIP not present")
	ErrBackendNotFound = errors.New("steer: backend not present")
	ErrNoBackend       = errors.New("steer: VIP has no live backend")
)

// Config parameterizes a Table.
type Config struct {
	// DrainWindow is the previous-generation lifetime in clock seconds;
	// 0 means DefaultDrainWindow, negative disables draining entirely.
	DrainWindow float64
	// Clock supplies the drain timestamps; nil means a zero clock (drains
	// then never expire on their own — callers that care inject one).
	Clock func() float64
	// DefaultMode is the mode assigned to VIPs added without one. The zero
	// value keeps today's behaviour (stateful).
	DefaultMode Mode
}

// Slots is the size of every backend set's slot table: a flow hash h selects
// slot h % Slots. Real switch ASICs use a fixed small power of two per ECMP
// group; 256 keeps the remap granularity fine enough that removing one of up
// to 512 members only touches that member's slots.
const Slots = 256

// Entry is one VIP's immutable resolution record — what an HMux's host table,
// an SMux and an NMux all resolve a packet against: the slot array plus, per
// slot, the index of the backend it serves (kept only for copy-on-write
// removal; lookups never touch it). A mode change's copy shares both.
type Entry struct {
	// What a packet reads, together at the head of the record.
	slots *[Slots]packet.Addr // nil when no backend is live
	ports map[uint16]*Entry
	mode  Mode

	owner    *[Slots]uint16    // slot → index into backends; nil for an empty set
	backends []service.Backend // weights ≥ 1; a removed member's slot is zeroed, not compacted
}

// Mode returns the VIP's steering mode.
//
//duet:hotpath
func (e *Entry) Mode() Mode { return e.mode }

// DIP resolves the tuple against the entry: port sub-entry first, then the
// slot array at hash % slots — a constant, so a mask, not a divide. Zero
// allocations.
//
//duet:hotpath
func (e *Entry) DIP(tuple packet.FiveTuple, h uint64) (packet.Addr, error) {
	sel := e.sub(tuple.DstPort)
	if sel.slots == nil {
		return 0, ErrNoBackend
	}
	return sel.slots[h%Slots], nil
}

// HasLive reports whether d is a live backend of the sub-entry serving
// tuple. Hybrid muxes use it to refuse pinning a flow to a DIP the current
// generation no longer serves (a failed DIP's connections are necessarily
// terminated, paper §5.1). It scans the backend list, which costs a packet
// nothing it can notice: the one hot caller asks only for flows whose DIP
// just changed, one flow in len(backends) on a removal. Zero allocations.
//
//duet:hotpath
func (e *Entry) HasLive(tuple packet.FiveTuple, d packet.Addr) bool {
	for _, b := range e.sub(tuple.DstPort).backends {
		if b.Addr == d {
			return d != 0 // a removed member's slot holds the zero address
		}
	}
	return false
}

// sub returns the sub-entry serving a destination port: the port rule's when
// one matches (Figure 8's ACL stage), otherwise the entry itself.
//
//duet:hotpath
func (e *Entry) sub(port uint16) *Entry {
	if e.ports != nil {
		if pe, ok := e.ports[port]; ok {
			return pe
		}
	}
	return e
}

// Sets calls f once per backend set the entry resolves over — the default
// set, then each port rule's — with the set's live DIPs in member order (a
// DIP listed twice appears twice). It is what a capacity-bounded tier charges
// its tables for.
func (e *Entry) Sets(f func(dips []packet.Addr)) {
	dips := make([]packet.Addr, 0, len(e.backends))
	for _, b := range e.backends {
		if !b.Addr.IsZero() { // a member WithoutBackend removed
			dips = append(dips, b.Addr)
		}
	}
	f(dips)
	for _, pe := range e.ports {
		pe.Sets(f)
	}
}

// generation is one immutable table snapshot.
type generation struct {
	epoch uint64
	vips  addrmap.Map[*Entry]
	// prev is the immediately preceding generation (its own prev stripped,
	// so the chain never exceeds one), kept alive until drainUntil so hybrid
	// muxes can compare picks across the epoch.
	prev       *generation
	drainUntil float64
}

// Table is the shared lookup table. One instance serves a paired SMux+NMux
// on the same host; the SMux owns mutation, both tiers read.
type Table struct {
	mu  sync.Mutex // serializes writers
	gen atomic.Pointer[generation]

	drain       float64
	clock       func() float64
	defaultMode Mode
}

// NewTable creates an empty table.
func NewTable(cfg Config) *Table {
	if cfg.DrainWindow == 0 {
		cfg.DrainWindow = DefaultDrainWindow
	}
	if cfg.Clock == nil {
		cfg.Clock = func() float64 { return 0 }
	}
	t := &Table{
		drain:       cfg.DrainWindow,
		clock:       cfg.Clock,
		defaultMode: cfg.DefaultMode,
	}
	t.gen.Store(&generation{})
	return t
}

// Epoch returns the table generation, bumped on every mutation.
func (t *Table) Epoch() uint64 { return t.gen.Load().epoch }

// NumVIPs returns the number of VIPs in the table.
func (t *Table) NumVIPs() int { return t.gen.Load().vips.Len() }

// HasVIP reports whether the VIP is present.
func (t *Table) HasVIP(addr packet.Addr) bool {
	_, ok := t.gen.Load().vips.Get(addr)
	return ok
}

// ModeOf returns the VIP's mode, or — false — the mode the table gives a
// VIP added without one.
func (t *Table) ModeOf(addr packet.Addr) (Mode, bool) {
	e, ok := t.gen.Load().vips.Get(addr)
	if !ok {
		return t.defaultMode, false
	}
	return e.mode, true
}

// View is a consistent read handle on one generation. Obtain once per packet
// so the current/previous comparison is against a single snapshot.
type View struct{ g *generation }

// View returns the current generation.
//
//duet:hotpath
func (t *Table) View() View { return View{g: t.gen.Load()} }

// Find returns the VIP's entry in the viewed generation.
//
//duet:hotpath
func (v View) Find(addr packet.Addr) (*Entry, bool) {
	return v.g.vips.Get(addr)
}

// DrainActive reports whether the previous generation is still consultable
// at the given clock reading.
//
//duet:hotpath
func (v View) DrainActive(now float64) bool {
	return v.g.prev != nil && now < v.g.drainUntil
}

// PrevDIP resolves the tuple against the previous generation, if one is
// still attached. Zero allocations.
//
//duet:hotpath
func (v View) PrevDIP(tuple packet.FiveTuple, h uint64) (packet.Addr, bool) {
	p := v.g.prev
	if p == nil {
		return 0, false
	}
	e, ok := p.vips.Get(tuple.Dst)
	if !ok {
		return 0, false
	}
	d, err := e.DIP(tuple, h)
	if err != nil {
		return 0, false
	}
	return d, true
}

// Lookup resolves a tuple against the current generation: the stateless
// fast path. Zero allocations.
func (t *Table) Lookup(tuple packet.FiveTuple) (packet.Addr, error) {
	e, ok := t.gen.Load().vips.Get(tuple.Dst)
	if !ok {
		return 0, ErrVIPNotFound
	}
	return e.DIP(tuple, ecmp.Hash(tuple))
}

// NewEntry materializes a VIP's resolution record: the default backend set
// and one sub-entry per port rule (Figure 8: a port rule overrides the
// default set). The construction is deterministic in the backend lists, so
// two tiers handed the same VIP hold identical slots. A set lists at most
// 65,536 backends, the most a slot's 16-bit index names (VIP.Validate).
func NewEntry(v *service.VIP, mode Mode) *Entry {
	e := buildEntry(v.Backends, mode)
	if len(v.Ports) > 0 {
		e.ports = make(map[uint16]*Entry, len(v.Ports))
		for _, pr := range v.Ports {
			e.ports[pr.Port] = buildEntry(pr.Backends, mode)
		}
	}
	return e
}

// buildEntry materializes one backend set: its backends, each weight
// counted as at least 1 — so a weight of 0 marks only a member
// WithoutBackend removed, whatever its address — apportioned over the slots
// by fill.
func buildEntry(backends []service.Backend, mode Mode) *Entry {
	e := &Entry{backends: slices.Clone(backends), mode: mode}
	for i := range e.backends {
		e.backends[i].Weight = max(e.backends[i].Weight, 1)
	}
	if len(e.backends) > 0 {
		e.owner = new([Slots]uint16)
		fill(e.owner, e.backends)
		e.slots = new([Slots]packet.Addr)
		for s, o := range e.owner {
			e.slots[s] = e.backends[o].Addr
		}
	}
	return e
}

// fill apportions the slot table to the backends by weight — the
// non-resilient full rehash a real ASIC performs on member addition — in
// one largest-remainder pass, which keeps each backend's share within one
// slot of the exact weight ratio, then interleaves the backends across the
// table so adjacent hash values do not all land on one. The table depends
// only on the weight list, so two tiers handed the same list fill the same
// table. backends is non-empty, with every weight ≥ 1.
func fill(owner *[Slots]uint16, backends []service.Backend) {
	var total uint64
	for _, b := range backends {
		total += uint64(b.Weight)
	}
	counts := make([]int, len(backends))
	rem := make([]uint64, len(backends))
	assigned := 0
	for i, b := range backends {
		exact := Slots * uint64(b.Weight)
		counts[i] = int(exact / total)
		rem[i] = exact % total
		assigned += counts[i]
	}
	for assigned < Slots {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = 0
		assigned++
	}
	for pos := 0; pos < Slots; {
		for i := range counts {
			if counts[i] > 0 {
				owner[pos] = uint16(i)
				pos++
				counts[i]--
			}
		}
	}
}

// WithoutBackend returns a copy of the entry with one DIP of the default set
// removed resiliently (paper §5.1 "DIP failure", Smart-Hash): only the
// removed member's slots are rewritten, round-robin over the live members in
// list order, so flows on surviving DIPs keep their mapping. The member's
// slot in the backend list stays, zeroed, so the survivors' indices hold;
// port sub-entries are shared with the original. ErrBackendNotFound if the
// DIP is not a live member.
func (e *Entry) WithoutBackend(dip packet.Addr) (*Entry, error) {
	i := e.member(dip)
	if i < 0 {
		return nil, ErrBackendNotFound
	}
	cp := &Entry{backends: slices.Clone(e.backends), ports: e.ports, mode: e.mode}
	cp.backends[i] = service.Backend{} // weight 0: the one mark of a removed member
	var live []uint16
	for j, b := range cp.backends {
		if b.Weight != 0 {
			live = append(live, uint16(j))
		}
	}
	if len(live) == 0 {
		return cp, nil
	}
	owner, slots, next := *e.owner, *e.slots, 0
	for s, o := range owner {
		if o == uint16(i) {
			owner[s] = live[next%len(live)]
			slots[s] = cp.backends[owner[s]].Addr
			next++
		}
	}
	cp.owner, cp.slots = &owner, &slots
	return cp, nil
}

// member returns the index of dip's first copy in the default set's backend
// list, or -1 when dip is not a live member.
func (e *Entry) member(dip packet.Addr) int {
	if dip.IsZero() { // the zero address marks a slot already removed
		return -1
	}
	return slices.IndexFunc(e.backends, func(b service.Backend) bool { return b.Addr == dip })
}

// publish installs a new generation. withDrain attaches the outgoing
// generation (prev chain capped at one) for the drain window; mutations that
// cannot change any slot (mode flips) pass false and carry the existing
// drain state forward instead. Must hold t.mu.
func (t *Table) publish(vips addrmap.Map[*Entry], withDrain bool) {
	cur := t.gen.Load()
	next := &generation{epoch: cur.epoch + 1, vips: vips}
	if withDrain && t.drain > 0 {
		next.prev = &generation{epoch: cur.epoch, vips: cur.vips}
		next.drainUntil = t.clock() + t.drain
	} else if !withDrain {
		next.prev = cur.prev
		next.drainUntil = cur.drainUntil
	}
	t.gen.Store(next)
}

// OpKind names what one Op of a batch does to its VIP.
type OpKind uint8

const (
	// OpSet installs Op.VIP in Op.Mode, adding it or replacing its entry:
	// what Plan gives a table that gains a VIP or whose VIP changed more
	// than its DIP removals.
	OpSet OpKind = iota
	// OpAdd installs Op.VIP in the table's default mode; ErrVIPExists if
	// the VIP is present.
	OpAdd
	// OpUpdate replaces Op.VIP's backend sets (a full deterministic
	// rebuild) and keeps its mode; ErrVIPNotFound if absent.
	OpUpdate
	// OpMode changes Op.Addr's mode to Op.Mode. No slot changes, so no
	// drain window opens and one in progress carries forward.
	OpMode
	// OpRemove deletes Op.Addr; ErrVIPNotFound if absent.
	OpRemove
	// OpRemoveDIP takes Op.DIP out of Op.Addr's default backend set in place
	// (Entry.WithoutBackend): only the flows on that DIP move. ErrVIPNotFound
	// if the VIP is absent, ErrBackendNotFound if the DIP is not a live member.
	OpRemoveDIP
)

// Op is one VIP's change in a batch (Table.Apply; the SMux, NMux and HMux
// batches take the same ops). The kinds that install a VIP read its address
// from VIP, OpMode and OpRemove from Addr, OpRemoveDIP from Addr and DIP.
// Entry is the entry the op leaves its VIP with (Derive): a table derives it
// when the op carries none and records it there, so a batch handed to
// several tables derives each entry once and every table installs the same
// one. Apply records the outcome in Err.
type Op struct {
	Kind  OpKind
	Addr  packet.Addr
	VIP   *service.VIP
	DIP   packet.Addr
	Mode  Mode
	Entry *Entry
	Err   error
}

// Derive records in op.Entry the entry op leaves its VIP with in a table
// whose entry for it is old (nil: the table lacks it) and which gives a VIP
// added without a mode def: OpSet, OpAdd and OpUpdate build one from op.VIP
// (NewEntry), OpRemoveDIP takes op.DIP out of old resiliently
// (WithoutBackend), OpMode copies old in op.Mode — the copy shares old's
// slots — and OpRemove leaves none. An op that already carries an entry
// keeps it: every table a batch reaches holds the VIP as the first did, so
// it installs that entry rather than deriving its own. The checks are the
// same either way: a set needs a valid config, OpAdd the VIP absent, the
// other kinds present, and OpRemoveDIP a live DIP.
func Derive(op *Op, old *Entry, def Mode) error {
	if op.Mode >= numModes {
		return fmt.Errorf("steer: invalid mode %d", uint8(op.Mode))
	}
	switch op.Kind {
	case OpSet, OpAdd, OpUpdate:
		if err := op.VIP.Validate(); err != nil {
			return err
		}
		mode := op.Mode
		switch {
		case op.Kind == OpAdd && old != nil:
			return ErrVIPExists
		case op.Kind == OpAdd:
			mode = def
		case op.Kind == OpUpdate && old == nil:
			return ErrVIPNotFound
		case op.Kind == OpUpdate:
			mode = old.mode
		}
		if op.Entry == nil {
			op.Entry = NewEntry(op.VIP, mode)
		}
		return nil
	case OpMode, OpRemove, OpRemoveDIP:
		if old == nil {
			return ErrVIPNotFound
		}
	default:
		return fmt.Errorf("steer: invalid op kind %d", uint8(op.Kind))
	}
	switch {
	case op.Kind == OpRemove:
		op.Entry = nil
	case op.Kind == OpRemoveDIP && old.member(op.DIP) < 0:
		return ErrBackendNotFound
	case op.Entry != nil: // derived already, by the planner or an earlier table
	case op.Kind == OpRemoveDIP:
		var err error
		op.Entry, err = old.WithoutBackend(op.DIP)
		return err
	case old.mode == op.Mode:
		op.Entry = old
	default:
		cp := *old
		cp.mode = op.Mode
		op.Entry = &cp
	}
	return nil
}

// Apply runs a batch of ops in order and publishes one generation for all of
// them, none when no op changed anything. Each op is validated alone: one
// that fails records its error and leaves its VIP as the ops before it left
// it. When any op can have moved a slot, the published generation drains to
// the table as it stood before the batch, so a hybrid mux compares a flow
// with the pre-batch pick however many VIPs the batch touched.
func (t *Table) Apply(ops []Op) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vips := t.gen.Load().vips.Edit()
	batch := unchanged
	for i := range ops {
		var eff effect
		eff, ops[i].Err = t.apply(vips, &ops[i])
		batch = max(batch, eff)
	}
	if batch > unchanged {
		t.publish(vips.Map(), batch == slotsChanged)
	}
}

// effect is what an op did to the table, in increasing order of what a
// publish must carry.
type effect uint8

const (
	unchanged    effect = iota
	modeChanged         // the epoch bumps, no slot moves
	slotsChanged        // a drain window opens
)

// apply runs one op of a batch against the batch's edit: it installs the
// entry Derive gives the op. Must hold t.mu.
func (t *Table) apply(vips *addrmap.Edit[*Entry], op *Op) (effect, error) {
	addr := op.Addr
	if op.VIP != nil && (op.Kind == OpSet || op.Kind == OpAdd || op.Kind == OpUpdate) {
		addr = op.VIP.Addr
	}
	old, _ := vips.Get(addr)
	if err := Derive(op, old, t.defaultMode); err != nil {
		return unchanged, err
	}
	switch {
	case op.Kind == OpMode && old.mode == op.Mode:
		return unchanged, nil
	case op.Kind == OpRemove:
		vips.Delete(addr)
		return slotsChanged, nil
	}
	vips.Set(addr, op.Entry)
	if op.Kind == OpMode {
		return modeChanged, nil
	}
	return slotsChanged, nil
}

// Side is what one table holds of a VIP: its config in a mode, or — a nil
// VIP — nothing. A table that keeps no mode (a switch, a NIC) passes the
// same mode on both sides of a Plan.
type Side struct {
	VIP  *service.VIP
	Mode Mode
}

// Plan appends the ops that take one table from holding before to holding
// after (§5.2's events and a move are each a pair of Sides): a VIP the table
// gains is an OpSet, one it loses an OpRemove. One it keeps loses each DIP
// the new config dropped in place, an OpRemoveDIP apiece, when that is all
// that changed — so only those DIPs' flows move; any other change is an
// OpSet. A mode change beside no OpSet is an OpMode. Plan allocates nothing
// for a table that keeps its config and mode.
func Plan(ops []Op, before, after Side) []Op {
	switch {
	case after.VIP == nil && before.VIP == nil:
		return ops
	case after.VIP == nil:
		return append(ops, Op{Kind: OpRemove, Addr: before.VIP.Addr})
	}
	set := Op{Kind: OpSet, Addr: after.VIP.Addr, VIP: after.VIP, Mode: after.Mode}
	if before.VIP == nil {
		return append(ops, set)
	}
	n := len(ops)
	ops, ok := takeOut(ops, before.VIP, after.VIP)
	switch {
	case !ok:
		return append(ops[:n], set)
	case before.Mode != after.Mode:
		return append(ops, Op{Kind: OpMode, Addr: after.VIP.Addr, Mode: after.Mode})
	}
	return ops
}

// takeOut appends an OpRemoveDIP per DIP of old's default set next dropped
// and reports whether that is all next changed — the rest in order with
// their weights, the port rules as they were. A DIP next still lists (a
// copy kept, or the DIP reweighed) is no removal: WithoutBackend takes out
// a DIP's first live copy.
func takeOut(ops []Op, old, next *service.VIP) ([]Op, bool) {
	kept, j := next.Backends, 0
	for _, b := range old.Backends {
		switch {
		case j < len(kept) && kept[j] == b:
			j++
		case slices.ContainsFunc(kept[:min(j+1, len(kept))], func(k service.Backend) bool { return k.Addr == b.Addr }):
			return ops, false
		default:
			ops = append(ops, Op{Kind: OpRemoveDIP, Addr: old.Addr, DIP: b.Addr})
		}
	}
	return ops, j == len(kept) && slices.EqualFunc(old.Ports, next.Ports, func(a, b service.PortRule) bool {
		return a.Port == b.Port && slices.Equal(a.Backends, b.Backends)
	})
}

// Gone returns a match for the pinned flows a batch's applied removals leave
// without their DIP — every flow of a VIP an OpRemove deleted, the flows
// pinned to a DIP an OpRemoveDIP took out (§5.1: those are necessarily
// terminated) — for a mux to purge from its per-flow state. It is nil, and
// allocates nothing, when the batch removed nothing.
func Gone(ops []Op) func(tuple packet.FiveTuple, dip packet.Addr) bool {
	var gone map[[2]packet.Addr]bool // (VIP, DIP); an OpRemove's DIP is zero
	var vips uint64                  // a one-word filter of gone's VIPs: most flows skip the probe
	for _, op := range ops {
		if op.Err == nil && (op.Kind == OpRemove || op.Kind == OpRemoveDIP) {
			if gone == nil {
				gone = make(map[[2]packet.Addr]bool)
			}
			gone[[2]packet.Addr{op.Addr, op.DIP}] = true
			vips |= 1 << (op.Addr % 64)
		}
	}
	if gone == nil {
		return nil
	}
	return func(t packet.FiveTuple, d packet.Addr) bool {
		return vips&(1<<(t.Dst%64)) != 0 && (gone[[2]packet.Addr{t.Dst, 0}] || gone[[2]packet.Addr{t.Dst, d}])
	}
}

// One runs op as a batch of one through apply (a table's Apply) and returns
// its error: what every per-VIP mutator is.
func One(apply func([]Op), op Op) error {
	ops := [1]Op{op}
	apply(ops[:])
	return ops[0].Err
}

// Add inserts a VIP with the table's default mode. ErrVIPExists if present.
func (t *Table) Add(v *service.VIP) error { return One(t.Apply, Op{Kind: OpAdd, VIP: v}) }

// Update replaces a VIP's backend set (full deterministic rebuild, exactly
// the semantics the muxes had), preserving its mode. ErrVIPNotFound if
// absent.
func (t *Table) Update(v *service.VIP) error { return One(t.Apply, Op{Kind: OpUpdate, VIP: v}) }

// DrainActive reports whether a previous generation is currently
// consultable.
func (t *Table) DrainActive() bool {
	t.mu.Lock()
	clock := t.clock
	t.mu.Unlock()
	return t.View().DrainActive(clock())
}

// ReleaseDrained detaches the previous generation once its drain window has
// passed, letting it be collected. Returns true if a generation was
// released. Called periodically by the owning mux's sweep.
func (t *Table) ReleaseDrained() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.gen.Load()
	if cur.prev == nil || t.clock() < cur.drainUntil {
		return false
	}
	t.gen.Store(&generation{epoch: cur.epoch, vips: cur.vips})
	return true
}
