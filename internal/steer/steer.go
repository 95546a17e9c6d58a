// Package steer is the stateless 5-tuple→DIP resolution every mux tier
// shares (paper §3.3.1 — shared hashing is what keeps tier fall-through
// invisible to connections). It has two layers. Entry is one VIP's
// resolution record, keyed by the ECMP flow hash every tier computes: the
// HMux holds Entries in its host and TIP tables, the SMux and the NMux read
// them out of a Table. Table is an epoch-versioned, Maglev/Concury-style
// consistent lookup table of Entries published behind an atomic pointer.
//
// An Entry is a flat slot array (hash % slots → DIP address) materialized
// from one resilient-hashing ecmp.Group, and this package is the only place
// a backend set becomes slots — so for a given VIP, backend list and
// mutation history, the steer table, the SMux, the NMux and the HMux pick
// the SAME DIP for the same 5-tuple by construction. Lookups are one atomic
// load, one map probe and one slice index — zero allocations, no locks.
//
// Updates follow Concury's concise-structure discipline: a batch of ops
// (Table.Apply; a replicated delta is one batch) rebuilds the entries of the
// VIPs it installs, takes removed DIPs out of theirs in place (OpRemoveDIP),
// and publishes one new generation — the shared copy-on-write table of
// internal/addrmap, so every other VIP's entry and every untouched chunk of
// the index carry over — with a bumped epoch. A rebuild moves most of a VIP's
// flows; because ecmp.Group removal is resilient and its fill is
// deterministic in the backend list, removing a DIP moves only its flows, and
// re-adding it returns the slot array exactly to its original state — flows
// that never hashed to the churned DIP never remap, which is what lets an
// SMux serve them statelessly across epochs.
//
// The table also keeps the generation before the latest slot-changing batch
// alive for a bounded drain window. A hybrid-mode SMux compares the current
// and previous pick for a flow and pins only the flows whose DIP would change
// across the epoch ("LB Scalability: stateful vs stateless" — a small
// stateful overlay instead of per-flow state for everything).
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

// Entry is one VIP's immutable resolution record — what an HMux's host table,
// an SMux and an NMux all resolve a packet against: the flattened slot array
// plus the group it was materialized from (kept only for copy-on-write
// mutation; lookups never touch it).
type Entry struct {
	// What a packet reads, together at the head of the record.
	slots *[ecmp.DefaultSlots]packet.Addr // nil for an empty backend set
	ports map[uint16]*Entry
	mode  Mode

	group    *ecmp.Group       // members are indices into backends
	backends []service.Backend // a removed member's slot is zeroed, not compacted
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
	return sel.slots[h%ecmp.DefaultSlots], nil
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
		if !b.Addr.IsZero() { // slot released by WithoutBackend
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

// ModeOf returns the VIP's mode.
func (t *Table) ModeOf(addr packet.Addr) (Mode, bool) {
	e, ok := t.gen.Load().vips.Get(addr)
	if !ok {
		return ModeStateful, false
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
// two tiers handed the same VIP hold identical slots.
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

// buildEntry materializes one backend set: a resilient-hashing ecmp.Group
// over the backends' indices, flattened into a slot array for lookup.
func buildEntry(backends []service.Backend, mode Mode) *Entry {
	members := make([]uint32, len(backends))
	weights := make([]uint32, len(backends))
	for i, b := range backends {
		members[i], weights[i] = uint32(i), b.Weight
	}
	e := &Entry{
		group:    ecmp.NewGroup(members, weights),
		backends: slices.Clone(backends),
		mode:     mode,
	}
	e.slots = flatten(e.group, e.backends)
	return e
}

// flatten copies the group's slot table into a slot→DIP array. An empty
// group flattens to nil (ErrNoBackend on lookup).
func flatten(g *ecmp.Group, backends []service.Backend) *[ecmp.DefaultSlots]packet.Addr {
	if g.Size() == 0 {
		return nil
	}
	out := new([ecmp.DefaultSlots]packet.Addr)
	for s := range out {
		out[s] = backends[g.SlotMember(s)].Addr
	}
	return out
}

// WithoutBackend returns a copy of the entry with one DIP of the default set
// removed resiliently: the group clone remaps only the removed member's slots
// (ecmp round-robin), so flows on surviving DIPs keep their mapping (paper
// §5.1 "DIP failure"). The member's slot in the backend list stays, dead, so
// the survivors' member ids hold; port sub-entries are shared with the
// original. ErrBackendNotFound if the DIP is not a live member.
func (e *Entry) WithoutBackend(dip packet.Addr) (*Entry, error) {
	i := slices.IndexFunc(e.backends, func(b service.Backend) bool { return b.Addr == dip })
	if i < 0 || dip.IsZero() { // the zero address marks a slot already removed
		return nil, ErrBackendNotFound
	}
	cp := &Entry{
		group:    e.group.Clone(),
		backends: slices.Clone(e.backends),
		ports:    e.ports,
		mode:     e.mode,
	}
	if err := cp.group.Remove(uint32(i)); err != nil {
		return nil, err
	}
	cp.backends[i] = service.Backend{}
	cp.slots = flatten(cp.group, cp.backends)
	return cp, nil
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
	// what a replicated delta does to a VIP it touches.
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
// Apply records the outcome in Err.
type Op struct {
	Kind OpKind
	Addr packet.Addr
	VIP  *service.VIP
	DIP  packet.Addr
	Mode Mode
	Err  error
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

// apply runs one op of a batch against the batch's edit. Must hold t.mu.
func (t *Table) apply(vips *addrmap.Edit[*Entry], op *Op) (effect, error) {
	if op.Mode >= numModes {
		return unchanged, fmt.Errorf("steer: invalid mode %d", uint8(op.Mode))
	}
	switch op.Kind {
	case OpSet, OpAdd, OpUpdate:
		if err := op.VIP.Validate(); err != nil {
			return unchanged, err
		}
		mode := op.Mode
		old, ok := vips.Get(op.VIP.Addr)
		switch {
		case op.Kind == OpAdd && ok:
			return unchanged, ErrVIPExists
		case op.Kind == OpAdd:
			mode = t.defaultMode
		case op.Kind == OpUpdate && !ok:
			return unchanged, ErrVIPNotFound
		case op.Kind == OpUpdate:
			mode = old.mode
		}
		vips.Set(op.VIP.Addr, NewEntry(op.VIP, mode))
		return slotsChanged, nil
	case OpMode:
		e, ok := vips.Get(op.Addr)
		if !ok {
			return unchanged, ErrVIPNotFound
		}
		if e.mode == op.Mode {
			return unchanged, nil
		}
		cp := *e
		cp.mode = op.Mode
		vips.Set(op.Addr, &cp)
		return modeChanged, nil
	case OpRemove, OpRemoveDIP:
		e, ok := vips.Get(op.Addr)
		if !ok {
			return unchanged, ErrVIPNotFound
		}
		if op.Kind == OpRemove {
			vips.Delete(op.Addr)
			return slotsChanged, nil
		}
		cp, err := e.WithoutBackend(op.DIP)
		if err != nil {
			return unchanged, err
		}
		vips.Set(op.Addr, cp)
		return slotsChanged, nil
	}
	return unchanged, fmt.Errorf("steer: invalid op kind %d", uint8(op.Kind))
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
