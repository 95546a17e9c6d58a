// Package core assembles the Duet system (paper §3, §6): a datacenter
// fabric whose switches each run an HMux, a small SMux fleet announcing the
// VIP aggregate as a backstop, host agents on the servers, a BGP-style
// routing view with longest-prefix-match preference, and the controller
// machinery (see internal/controller) that places and migrates VIPs.
//
// Cluster offers a byte-accurate datapath: Deliver pushes a real IPv4 packet
// through route lookup, mux selection, IP-in-IP encapsulation (including TIP
// indirection) and host-agent decapsulation, returning the delivery the
// destination server observes.
//
// Concurrency model (see DESIGN.md "Concurrency model"): the cluster-level
// lookup state Deliver consults — the mux each running switch runs, TIP homes,
// the host-agent index — lives once, in an immutable snapshot published
// through an atomic pointer with a monotonically increasing epoch. Mutators
// serialize on the writer mutex and read the current generation there; one
// that changes what a packet can observe (a new host, a switch stopping or
// rebooting, a TIP home) publishes a successor that replaces that field and
// shares the rest, and one that does not — a VIP move, a mode flip, a removal
// — publishes nothing. Deliver loads the pointer once and resolves the whole
// packet against that one generation. The BGP table and the muxes publish their own
// generations internally, so a packet observes (cluster snapshot, route
// snapshot, mux table generation) — each complete and internally consistent —
// and never a torn read.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"duet/internal/addrmap"
	"duet/internal/bgp"
	"duet/internal/ecmp"
	"duet/internal/hmux"
	"duet/internal/hostagent"
	"duet/internal/netsim"
	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/telemetry"
	"duet/internal/topology"
)

// Errors returned by the cluster.
var (
	ErrNoRoute      = errors.New("core: no route for destination")
	ErrVIPUnknown   = errors.New("core: VIP not configured")
	ErrVIPExists    = errors.New("core: VIP already configured")
	ErrSwitchDown   = errors.New("core: switch is down")
	ErrNoSuchSwitch = errors.New("core: no such switch")
	ErrNoHostAgent  = errors.New("core: no host agent at encap destination")
	// ErrNMuxDisabled rejects NIC-tier operations on a cluster built without
	// Config.NMuxTableSize.
	ErrNMuxDisabled = errors.New("core: NIC mux tier is not enabled")
)

// smuxNodeBase offsets SMux IDs in the routing table (switches use their
// SwitchID directly).
const smuxNodeBase bgp.NodeID = 1 << 20

// converged is the time deliver resolves routes at: after every change the
// table has seen. Route changes are stamped with the recorder's clock for the
// trace they leave, but the cluster holds no clock of its own — a mutator's
// change is in force once it returns, and a caller that models propagation
// delay (internal/testbed) calls the mutator when the delay has passed.
const converged = math.MaxFloat64

// nmuxNodeBase offsets NMux IDs in telemetry trace events. NMuxes never
// appear in the routing table — they front the SMux on the same server — but
// their trace records need identities distinct from both switch and SMux
// node IDs.
const nmuxNodeBase = uint32(1) << 21

// Config sizes a cluster.
type Config struct {
	Topology topology.Config
	// NumSMuxes is the backstop fleet size (use internal/provision to pick).
	NumSMuxes int
	// Aggregate is the VIP prefix the SMuxes announce.
	Aggregate packet.Prefix
	// HMuxTables overrides switch table sizes (zero = paper defaults).
	HMuxTables hmux.Config
	// SMuxCapacityPPS overrides each SMux's CPU saturation point (zero =
	// the §2.2 production default of 300K pps). The obs watchdogs compare
	// the fleet's delivered rate against the aggregate capacity.
	SMuxCapacityPPS float64
	// NMuxTableSize enables the NIC match-table tier: every SMux server's
	// NIC gets an nmux.Mux of this many entries, consulted before the SMux
	// on the delivery path. 0 disables the tier (no NMuxes are created).
	NMuxTableSize int
	// SMuxMode is the default per-connection consistency mode for VIPs
	// added to the SMux fleet (zero value: steer.ModeStateful, the
	// classic conn-table path). Per-VIP overrides go through SetVIPMode.
	SMuxMode steer.Mode
}

// DefaultConfig returns a cluster matching the scaled-down default fabric
// with a small SMux fleet.
func DefaultConfig() Config {
	return Config{
		Topology:  topology.DefaultConfig(),
		NumSMuxes: 8,
		Aggregate: packet.MustParsePrefix("10.0.0.0/8"),
	}
}

// placement is a VIP's place beyond the SMux backstop: on the NIC tier, or on
// switches — several when replicated (§9) — whose tables hold it and that
// announce its /32. The two lists are equal, or one is empty: half a leg.
type placement struct {
	tables, routes []topology.SwitchID
	nic            bool
}

// sws returns the switches a placement holds its VIP on, in either half.
func (p placement) sws() []topology.SwitchID {
	if len(p.tables) > 0 {
		return p.tables
	}
	return p.routes
}

// clusterSnap is one immutable generation of the lookup state Deliver needs
// that a mutator can change; what New fixes for good (the route table, the
// host mux fleet, the topology) Deliver reads from the Cluster. A generation
// shares with its predecessor every field the mutation did not replace, and
// the two indexes share every chunk it did not touch (internal/addrmap); what
// the fields point at — muxes, agents — publishes its own generations.
type clusterSnap struct {
	epoch   uint64      // counts the changes a packet could observe
	hmuxes  []*hmux.Mux // per switch; nil while the switch is down
	tipHome addrmap.Map[topology.SwitchID]
	agents  addrmap.Map[*hostagent.Agent] // host addr → agent
}

// Cluster is a fully wired Duet deployment. Deliver/DeliverBatch are safe
// for any number of concurrent callers; control-plane mutators serialize on
// an internal writer lock. The exported fields are wiring handles for
// control-plane code (the controller, tests, CLIs) and must not be mutated
// concurrently with Deliver except through Cluster methods.
type Cluster struct {
	Topo   *topology.Topology
	Net    *netsim.Network
	Routes *bgp.Table

	// HMuxes holds every switch's mux, stopped switches included (a stopped
	// switch keeps its tables until RecoverSwitch reboots it blank).
	HMuxes []*hmux.Mux
	SMuxes []*smux.Mux
	// NMuxes are the NIC match-table muxes, paired 1:1 with the SMuxes on
	// the same servers (empty unless Config.NMuxTableSize > 0).
	NMuxes []*nmux.Mux
	pairs  []nmux.Pair // each SMux server's NIC table and SMux, indexed like SMuxes

	// mu serializes all control-plane mutation (and netsim access — the
	// network simulator is single-writer by design).
	mu sync.Mutex

	// snap is the state Deliver reads and the only copy of it: mutators read
	// the current generation under mu and publish its successor.
	snap atomic.Pointer[clusterSnap]

	// Control-plane records no packet consults, guarded by mu.
	vips   map[packet.Addr]*service.VIP
	placed map[packet.Addr]placement // VIPs on a switch or the NIC tier

	tableCfg hmux.Config // per-switch table sizing, for reboot re-creation

	reg *telemetry.Registry
	rec *telemetry.Recorder

	dtel     deliverTelemetry
	ctel     collectGauges
	traceSeq atomic.Uint64 // numbers sampled in-process packet journeys
	scratch  sync.Pool     // *scratch, borrowed per Deliver / per batch worker
}

// deliverTelemetry is Deliver's pre-resolved instrument block. The per-hop
// histograms let the obs watchdogs localize latency inflation to a pipeline
// stage (hmux vs smux vs TIP indirection vs host agent) instead of seeing
// only end-to-end time.
type deliverTelemetry struct {
	packets, errors                    telemetry.CounterShard
	hopHMux, hopSMux, hopTIP, hopAgent *telemetry.Histogram
	hopNMux                            *telemetry.Histogram

	// The per-packet attribution counters, indexed like a scratch's tally and
	// added to once per run from it (flush), and the stages' own per-packet
	// counters, added to from the scratch's stage tallies at the same time.
	tallied [numTallies]telemetry.CounterShard
	hmux    hmux.Counters
	host    nmux.PairCounters
	agent   hostagent.Counters
}

// The attribution a worker tallies per packet in its scratch. Per tier:
// which mux tier terminated the packet (hit), and how often the NIC tier was
// consulted but missed — hmux hits exclude FIB-miss fall-throughs; nmux
// misses and smux hits count the same packet once each when the NIC tier
// declines it. Per consistency mode on the SMux tier (tallyMode +
// steer.Mode): which steering mode served the packet, so operators can see
// mode rollouts take traffic.
const (
	tallyHMux = iota
	tallyNMux
	tallySMux
	tallyNMuxMiss
	tallyMode
	numTallies = tallyMode + 3
)

// defaultSampleEvery is the sampling rate core.New sets on the cluster's
// recorder; Telemetry() hands the recorder out for callers that want another.
const defaultSampleEvery = 16

// newTrace mints a trace ID for a sampled in-process journey. IDs are
// always odd, so they can never collide with the wire transport's
// node<<32|seq scheme (whose low bit cycles) when events from simulated and
// socket clusters land in one obs.StitchJourneys call.
//
//duet:hotpath
func (c *Cluster) newTrace() uint64 { return c.traceSeq.Add(1)<<1 | 1 }

// collectGauges is the point-in-time state Collect republishes every scrape.
type collectGauges struct {
	hmux  hmux.Gauges
	smux  smux.Gauges
	nmux  nmux.Gauges
	epoch *telemetry.Gauge
}

// hopBuckets spans the in-process hop latencies (hundreds of ns) up through
// the paper's device latencies: 2µs HMux, 196µs/1ms SMux (§2.2), with room
// above for inflation the smux-latency watchdog should catch.
var hopBuckets = []float64{
	250e-9, 500e-9, 1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6,
	100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3,
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	if cfg.NumSMuxes <= 0 {
		cfg.NumSMuxes = 1
	}
	if cfg.Aggregate.Bits == 0 && cfg.Aggregate.Addr == 0 {
		cfg.Aggregate = packet.MustParsePrefix("10.0.0.0/8")
	}
	c := &Cluster{
		Topo:   topo,
		Net:    netsim.New(topo),
		Routes: bgp.NewTable(),
		HMuxes: make([]*hmux.Mux, topo.NumSwitches()),
		vips:   make(map[packet.Addr]*service.VIP),
		placed: make(map[packet.Addr]placement),
		reg:    telemetry.NewRegistry(),
		rec:    telemetry.NewRecorder(telemetry.DefaultRecorderSize),
	}
	c.scratch.New = func() any { return new(scratch) }
	// One packet in 16 is sampled (see deliver) and has its hops timed on the
	// recorder's clock — wall seconds unless SetClock injected another. Reading
	// a clock twice per hop costs more than the whole lookup on hosts without a
	// vDSO fast path, and unsampled, a cluster at rate overwrites the ring its
	// control-plane events share within milliseconds; the histograms converge
	// on the same distribution either way.
	c.rec.SetSampleEvery(defaultSampleEvery)
	c.Routes.SetTelemetry(c.reg, c.rec)
	c.dtel = deliverTelemetry{
		packets:  c.reg.Counter("core.deliver.packets").Shard(),
		errors:   c.reg.Counter("core.deliver.errors").Shard(),
		hopHMux:  c.reg.Histogram("core.deliver.hop.hmux.seconds", hopBuckets),
		hopSMux:  c.reg.Histogram("core.deliver.hop.smux.seconds", hopBuckets),
		hopTIP:   c.reg.Histogram("core.deliver.hop.tip.seconds", hopBuckets),
		hopAgent: c.reg.Histogram("core.deliver.hop.agent.seconds", hopBuckets),
		hopNMux:  c.reg.Histogram("core.deliver.hop.nmux.seconds", hopBuckets),
		tallied: [numTallies]telemetry.CounterShard{
			tallyHMux:     c.reg.Counter("core.deliver.tier.hmux").Shard(),
			tallyNMux:     c.reg.Counter("core.deliver.tier.nmux").Shard(),
			tallySMux:     c.reg.Counter("core.deliver.tier.smux").Shard(),
			tallyNMuxMiss: c.reg.Counter("core.deliver.tier.nmux_miss").Shard(),
		},
		hmux:  hmux.NewCounters(c.reg),
		host:  nmux.NewPairCounters(c.reg, cfg.NMuxTableSize > 0),
		agent: hostagent.NewCounters(c.reg),
	}
	for _, md := range steer.Modes() {
		//duet:allow metriclabel fixed three-mode set resolved once at construction
		c.dtel.tallied[tallyMode+int(md)] = c.reg.Counter("core.deliver.mode." + md.String()).Shard()
	}
	c.ctel = collectGauges{
		hmux:  hmux.NewGauges(c.reg),
		smux:  smux.NewGauges(c.reg),
		nmux:  nmux.NewGauges(c.reg), // registered without a NIC tier too: the series set is the same either way
		epoch: c.reg.Gauge("core.epoch"),
	}
	c.tableCfg = cfg.HMuxTables
	for s := range c.HMuxes {
		tcfg := cfg.HMuxTables
		tcfg.SelfAddr = switchAddr(s)
		c.HMuxes[s] = hmux.New(tcfg)
		c.HMuxes[s].SetTelemetry(c.reg, c.rec, uint32(s))
	}
	for i := 0; i < cfg.NumSMuxes; i++ {
		scfg := smux.DefaultConfig(packet.AddrFrom4(192, 168, byte(i>>8), byte(i)))
		if cfg.SMuxCapacityPPS > 0 {
			scfg.CapacityPPS = cfg.SMuxCapacityPPS
		}
		scfg.DefaultMode = cfg.SMuxMode
		sm := smux.New(scfg)
		sm.SetTelemetry(c.reg, c.rec, uint32(smuxNodeBase)+uint32(i))
		c.SMuxes = append(c.SMuxes, sm)
		c.Routes.Announce(cfg.Aggregate, smuxNodeBase+bgp.NodeID(i), 0)
		var nm *nmux.Mux
		if cfg.NMuxTableSize > 0 {
			// The NIC mux shares the SMux server's address so both tiers
			// emit identical outer sources — and the SMux's steer table, so
			// both resolve a flow to the same DIP (identical encap bytes
			// whichever tier serves it).
			nm = nmux.New(nmux.Config{
				SelfAddr:  scfg.SelfAddr,
				TableSize: cfg.NMuxTableSize,
				Steer:     sm.Steer(),
			})
			nm.SetTelemetry(c.reg, c.rec, nmuxNodeBase+uint32(i))
			c.NMuxes = append(c.NMuxes, nm)
		}
		c.pairs = append(c.pairs, nmux.Pair{NIC: nm, SMux: sm})
	}
	c.snap.Store(&clusterSnap{hmuxes: slices.Clone(c.HMuxes)})
	return c, nil
}

// publish installs next — the current generation with the fields the caller
// replaced — as its successor. Must hold c.mu.
func (c *Cluster) publish(next clusterSnap) {
	next.epoch++
	c.snap.Store(&next)
}

// Telemetry exposes the cluster's always-on metric registry and flight
// recorder (duetctl's `top` view reads these).
func (c *Cluster) Telemetry() (*telemetry.Registry, *telemetry.Recorder) {
	return c.reg, c.rec
}

// wiring is one call's new hosts: the agents of hosts the cluster has not
// seen, gathered in one edit of the agent index (begun by the first of them)
// that wireLocked publishes as one generation.
type wiring struct {
	edit *addrmap.Edit[*hostagent.Agent]
}

// agentLocked returns the host's agent. A host the cluster has not seen gets
// one, instrumented and added to w; the caller publishes w (wireLocked)
// before any mux can map a flow to the host, so a concurrent Deliver never
// finds a mapped DIP without a host behind it.
func (c *Cluster) agentLocked(w *wiring, hostAddr packet.Addr) *hostagent.Agent {
	if w.edit == nil {
		agents := c.snap.Load().agents
		if a, ok := agents.Get(hostAddr); ok {
			return a
		}
		w.edit = agents.Edit()
	} else if a, ok := w.edit.Get(hostAddr); ok {
		return a
	}
	a := hostagent.New(hostAddr)
	a.SetTelemetry(c.reg, c.rec, uint32(hostAddr))
	w.edit.Set(hostAddr, a)
	return a
}

// wireLocked publishes w's new hosts, if it has any, in one generation.
func (c *Cluster) wireLocked(w *wiring) {
	if w.edit == nil {
		return
	}
	s := *c.snap.Load()
	s.agents = w.edit.Map()
	c.publish(s)
	w.edit = nil
}

// upLocked reports whether a switch's dataplane is running.
func (c *Cluster) upLocked(sw topology.SwitchID) bool {
	return c.snap.Load().hmuxes[sw] != nil
}

// switchAddr derives a switch's loopback address from its ID.
func switchAddr(s int) packet.Addr {
	return packet.AddrFrom4(172, 16, byte(s>>8), byte(s))
}

// AddVIP configures a new VIP: per §5.2 it lands on the SMuxes first, in
// the SMux fleet's default mode; the controller may later migrate it to an
// HMux. A Place target of one.
func (c *Cluster) AddVIP(v *service.VIP) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.vips[v.Addr]; ok {
		return ErrVIPExists
	}
	return c.placeLocked([]Target{{Addr: v.Addr, VIP: v}})
}

// hostBackendLocked puts a host agent behind a backend address: one host per
// DIP, serving its own address — unless RegisterHost attached VM DIPs for the
// VIP there (Figure 6), in which case the address is the host's alone.
func (c *Cluster) hostBackendLocked(w *wiring, vip, addr packet.Addr) error {
	a := c.agentLocked(w, addr)
	if len(a.LocalDIPs(vip)) > 0 {
		return nil
	}
	return a.RegisterDIP(vip, addr)
}

// unhostBackendLocked undoes hostBackendLocked for a backend address the VIP
// no longer lists, so the DIP can serve another VIP: the host stops
// decapsulating for the VIP at its own address and — vms: the VIP itself is
// going — at the VM DIPs RegisterHost attached. The agent stays in the index.
func (c *Cluster) unhostBackendLocked(vip, addr packet.Addr, vms bool) {
	a, ok := c.snap.Load().agents.Get(addr)
	if !ok {
		return
	}
	for _, d := range a.LocalDIPs(vip) {
		if vms || d == addr {
			_ = a.UnregisterDIP(d) // d is registered: LocalDIPs just listed it
		}
	}
}

// allBackends lists a VIP's backends (nil: none), the default set's and the
// port rules'.
func allBackends(v *service.VIP) []service.Backend {
	if v == nil {
		return nil
	}
	out := slices.Clone(v.Backends)
	for _, pr := range v.Ports {
		out = append(out, pr.Backends...)
	}
	return out
}

// diffBackends returns the backends of a whose address b does not list.
func diffBackends(a, b *service.VIP) []service.Backend {
	keep := allBackends(b)
	return slices.DeleteFunc(allBackends(a), func(x service.Backend) bool {
		return slices.ContainsFunc(keep, func(y service.Backend) bool { return y.Addr == x.Addr })
	})
}

// cloneVIP deep-copies a VIP's config: the cluster's record outlives the
// call that handed it over and is handed out by VIP, so it owns its
// backend arrays instead of sharing the caller's.
func cloneVIP(v *service.VIP) *service.VIP {
	cp := *v
	cp.Backends = slices.Clone(v.Backends)
	cp.Ports = slices.Clone(v.Ports)
	for i := range cp.Ports {
		cp.Ports[i].Backends = slices.Clone(cp.Ports[i].Backends)
	}
	return &cp
}

// RegisterHost attaches a virtualized host running several VM DIPs for a VIP
// (Figure 6). The VIP's backend list should reference hostAddr (the HIP),
// possibly multiple times for weighting.
func (c *Cluster) RegisterHost(hostAddr packet.Addr, vip packet.Addr, vmDIPs []packet.Addr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var w wiring
	a := c.agentLocked(&w, hostAddr)
	c.wireLocked(&w)
	for _, d := range vmDIPs {
		if err := a.RegisterDIP(vip, d); err != nil {
			return err
		}
	}
	return nil
}

// RemoveVIP withdraws a VIP everywhere (§5.2 "VIP removal"): a Place
// target of one.
func (c *Cluster) RemoveVIP(addr packet.Addr) error {
	return c.Place(Target{Addr: addr, Remove: true})
}

// VIP returns the configuration of a VIP.
func (c *Cluster) VIP(addr packet.Addr) (*service.VIP, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vips[addr]
	return v, ok
}

// VIPs returns all configured VIP addresses, in ascending order.
func (c *Cluster) VIPs() []packet.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]packet.Addr, 0, len(c.vips))
	for a := range c.vips {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// HomeOf returns the switch serving a VIP in hardware — the first of them
// when the VIP is replicated — or false if the VIP is served by the SMuxes,
// which it is between the halves of a migration leg.
func (c *Cluster) HomeOf(addr packet.Addr) (topology.SwitchID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.placed[addr]; len(p.tables) > 0 && len(p.routes) > 0 {
		return p.tables[0], true
	}
	return 0, false
}

// Replicas returns the switches currently holding a VIP.
func (c *Cluster) Replicas(addr packet.Addr) []topology.SwitchID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.placed[addr].sws())
}

// NMuxHosted reports whether the VIP is programmed on the NIC tier.
func (c *Cluster) NMuxHosted(addr packet.Addr) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.placed[addr].nic
}

// VIPMode returns a VIP's consistency mode on the SMux fleet.
func (c *Cluster) VIPMode(addr packet.Addr) (steer.Mode, bool) {
	return c.SMuxes[0].ModeOf(addr)
}

// StopSwitch is FailSwitch's first half: the switch's dataplane stops while
// the fabric still routes to it, so every VIP homed there blackholes (Deliver
// returns ErrSwitchDown) — Figure 12's outage window — until FailSwitch
// completes the failure.
func (c *Cluster) StopSwitch(sw topology.SwitchID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopSwitchLocked(sw)
}

func (c *Cluster) stopSwitchLocked(sw topology.SwitchID) {
	s := *c.snap.Load()
	if s.hmuxes[sw] == nil {
		return
	}
	s.hmuxes = slices.Clone(s.hmuxes)
	s.hmuxes[sw] = nil
	c.publish(s)
	c.Net.FailSwitch(sw)
	c.rec.Record(telemetry.KindSwitchFail, uint32(sw), 0, 0, 0)
}

// FailSwitch kills a switch: the dataplane stops (unless StopSwitch already
// stopped it) and the fabric, having detected the failure, withdraws all its
// routes. The cluster applies both at once; a caller that models detection
// and convergence delay (internal/testbed) calls StopSwitch first and this
// when the delay has passed.
func (c *Cluster) FailSwitch(sw topology.SwitchID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopSwitchLocked(sw)
	c.Routes.WithdrawAll(bgp.NodeID(sw), c.rec.Now())
	// VIPs homed there alone are now SMux-served, replicated ones served by
	// the surviving replicas; forget the stale place. TIP homes are kept: the
	// partition is still programmed, just unreachable until recovery (Deliver
	// reports ErrSwitchDown, as the real fabric would blackhole until the
	// controller re-installs the partition).
	gone := func(s topology.SwitchID) bool { return s == sw }
	for vip, p := range c.placed {
		if p.tables, p.routes = slices.DeleteFunc(p.tables, gone), slices.DeleteFunc(p.routes, gone); len(p.sws()) == 0 && !p.nic {
			delete(c.placed, vip)
		} else {
			c.placed[vip] = p
		}
	}
}

// RecoverSwitch brings a switch back. A rebooted switch loses its tables
// (§5.1), so the HMux is re-created blank; the controller re-runs
// assignment to repopulate it.
func (c *Cluster) RecoverSwitch(sw topology.SwitchID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := *c.snap.Load()
	if s.hmuxes[sw] != nil {
		return
	}
	tcfg := c.tableCfg
	tcfg.SelfAddr = switchAddr(int(sw))
	c.HMuxes[sw] = hmux.New(tcfg)
	c.HMuxes[sw].SetTelemetry(c.reg, c.rec, uint32(sw))
	c.Net.RecoverSwitch(sw)
	// The reboot wiped the switch's tables, so any TIP partitions it hosted
	// are gone until reinstalled.
	s.tipHome.Range(func(tip packet.Addr, home topology.SwitchID) {
		if home == sw {
			s.tipHome = s.tipHome.Without(tip)
		}
	})
	s.hmuxes = slices.Clone(s.hmuxes)
	s.hmuxes[sw] = c.HMuxes[sw]
	c.publish(s)
}

// SwitchUp reports switch liveness.
func (c *Cluster) SwitchUp(sw topology.SwitchID) bool {
	return c.snap.Load().hmuxes[sw] != nil
}

// Agent returns the host agent of a host address.
func (c *Cluster) Agent(host packet.Addr) (*hostagent.Agent, bool) {
	return c.snap.Load().agents.Get(host)
}

// Hop describes one step a packet took through the datapath.
type Hop struct {
	Kind string // "hmux", "nmux", "smux", "tip", "agent"
	Node string // description of the entity
}

// maxHops is the longest datapath: HMux, TIP switch, host agent.
const maxHops = 3

// hopList is a packet's path as the forwarding path records it: one
// {tier, node} pair per step, so recording a hop stores two words. node is
// the SwitchID on the switch tiers and the entity's address elsewhere — the
// identity the step's trace-hop event carries. Two parallel arrays rather
// than an array of pairs: 16 bytes instead of 24 in every BatchResult.
type hopList struct {
	node [maxHops]uint32
	tier [maxHops]telemetry.TraceTier
	n    uint8
}

// Delivery is the end-to-end result of Deliver.
type Delivery struct {
	VIP     packet.Addr
	DIP     packet.Addr
	Host    packet.Addr
	fibMiss bool   // in the padding before Packet: BatchResult stays 80 bytes
	Packet  []byte // the packet as the server receives it

	topo *topology.Topology // names the switches in hops
	hops hopList
}

// HMux reports the switch that served the packet in hardware. False means a
// host mux (NIC table or SMux) did: the fabric routed the packet to one, or
// to a switch whose FIB missed (FIBMiss).
func (d Delivery) HMux() (topology.SwitchID, bool) {
	return topology.SwitchID(d.hops.node[0]), d.hops.tier[0] == telemetry.TraceTierHMux
}

// FIBMiss reports that the fabric routed the packet to a switch whose tables
// did not hold the VIP — the window between a Hold target that takes it off
// its switch and the target that withdraws the route — so it followed the
// aggregate one hop further to a host mux.
func (d Delivery) FIBMiss() bool { return d.fibMiss }

// Hops renders the steps the packet took, in order. Forwarding keeps only
// hopList; the names are built here, for the callers that want to read them.
func (d Delivery) Hops() []Hop {
	hops := make([]Hop, d.hops.n)
	for i := range hops {
		tier, node := d.hops.tier[i], d.hops.node[i]
		h := Hop{Kind: tier.String(), Node: packet.Addr(node).String()}
		switch tier {
		case telemetry.TraceTierHMux, telemetry.TraceTierTIP:
			h.Node = d.topo.Switch(topology.SwitchID(node)).Name
		case telemetry.TraceTierHost:
			h.Kind = "agent"
		}
		hops[i] = h
	}
	return hops
}

// scratch is the memory one forwarding goroutine owns while it delivers: the
// mux tier encapsulates into encap, a TIP switch re-encapsulates encap into
// tip, and tally and the stage tallies count what the packets did — core's
// attribution and each stage's own per-packet counters — until flush adds
// them to the shared counters. Deliver borrows one from the cluster's pool
// per call, a DeliverBatch worker for the length of the batch; no Delivery
// ever points into it.
type scratch struct {
	encap, tip []byte
	touch      byte // what deliverRun's sweep read: stored, so its loads are kept
	tally      [numTallies]uint64
	hmux       hmux.Tally
	host       nmux.PairTally
	agent      hostagent.Tally
}

// flush adds a scratch's tallies to the shared counters and zeroes them: a
// batch worker pays the counters' atomics once per run, not once per packet,
// so a scrape lags the packets by at most one run.
//
//duet:hotpath
func (c *Cluster) flush(sc *scratch) {
	for i, n := range sc.tally {
		c.dtel.tallied[i].Add(n)
		sc.tally[i] = 0
	}
	c.dtel.hmux.Flush(&sc.hmux)
	c.dtel.host.Flush(&sc.host)
	c.dtel.agent.Flush(&sc.agent)
}

// Deliver pushes a VIP-addressed packet through the full datapath and
// returns what the backend server receives. It mutates real mux state (SMux
// connection tables) exactly as production traffic would. Safe for
// concurrent callers, including concurrently with control-plane mutation:
// the whole packet resolves against one atomically published snapshot.
//
//duet:hotpath
func (c *Cluster) Deliver(data []byte) (Delivery, error) {
	sc := c.scratch.Get().(*scratch)
	var d Delivery
	err := c.deliver(c.snap.Load(), data, sc, nil, &d, c.rec.Sample())
	c.flush(sc)
	c.scratch.Put(sc)
	c.dtel.packets.Inc()
	if err != nil {
		c.dtel.errors.Inc()
		return Delivery{}, err
	}
	return d, nil
}

// deliver resolves one packet against snap: ingress parse, route pick, mux
// tier, TIP hop if any, host agent. Intermediate packets live in sc; the
// packet the server receives is appended to out (nil: its own allocation)
// and the result is written in place into the zero Delivery d, which holds
// garbage on error.
//
// The client's header is verified once, here, and its flow and hash are
// handed to every stage with the packet's one sampling decision (sampled,
// the recorder's own — 1 in 16 unless SetSampleEvery moved it): no stage
// decodes it again, and a sampled packet has its hops timed, is traced as a
// journey and leaves every pipeline event of every tier it crossed. The
// agent's address is the serving mux's encap destination, so the tunnel
// header core's own mux wrote is verified only by the agent that unwraps it.
func (c *Cluster) deliver(snap *clusterSnap, data []byte, sc *scratch, out []byte, d *Delivery, sampled bool) error {
	f, err := packet.Parse(data)
	if err != nil {
		return err
	}
	vip := f.Tuple.Dst
	hash := ecmp.Hash(f.Tuple)
	nh, _, ok := c.Routes.Snapshot().Pick(vip, converged, hash)
	if !ok {
		return ErrNoRoute
	}
	var trace uint64
	if sampled {
		trace = c.newTrace()
	}
	d.topo = c.Topo

	var (
		encapped []byte
		host     packet.Addr // the encap destination: the host agent's address
		t0       float64
	)
	if nh < smuxNodeBase {
		sw := topology.SwitchID(nh)
		hm := snap.hmuxes[sw]
		if hm == nil {
			return ErrSwitchDown
		}
		if sampled {
			t0 = c.rec.Now()
		}
		res, err := hm.ProcessSampled(data, sc.encap[:0], f, hash, sampled, &sc.hmux)
		if sampled {
			c.dtel.hopHMux.Observe(c.rec.Now() - t0)
		}
		switch {
		case err == hmux.ErrNotOurVIP:
			// FIB miss during migration: the packet follows the aggregate on
			// to a host mux pair.
			nh = smuxNodeBase + bgp.NodeID(hash%uint64(len(c.pairs)))
			d.fibMiss = true
		case err != nil:
			return err
		default:
			encapped, sc.encap, host = res.Packet, res.Packet, res.Encap
			sc.tally[tallyHMux]++
			c.hop(d, telemetry.TraceTierHMux, uint32(sw), vip, trace)
			// TIP indirection: the outer destination may be a TIP hosted on
			// another switch (§5.2, Figure 7).
			if tipSwitch, ok := snap.tipHome.Get(res.Encap); ok {
				tm := snap.hmuxes[tipSwitch]
				if tm == nil {
					return ErrSwitchDown
				}
				if sampled {
					t0 = c.rec.Now()
				}
				// The TIP switch is handed what this one emitted — a tunnel
				// from it to the TIP — and resolves on the inner tuple, so the
				// tunnel's hash is not taken.
				tunnel := packet.Flow{Tuple: packet.FiveTuple{Src: switchAddr(int(sw)), Dst: res.Encap, Proto: packet.ProtoIPIP}}
				res, err := tm.ProcessSampled(encapped, sc.tip[:0], tunnel, 0, sampled, &sc.hmux)
				if sampled {
					c.dtel.hopTIP.Observe(c.rec.Now() - t0)
				}
				if err != nil {
					return err
				}
				encapped, sc.tip, host = res.Packet, res.Packet, res.Encap
				c.hop(d, telemetry.TraceTierTIP, uint32(tipSwitch), vip, trace)
			}
		}
	}
	if nh >= smuxNodeBase { // a host mux pair
		i := int(nh - smuxNodeBase)
		if sampled {
			t0 = c.rec.Now()
		}
		res, err := c.pairs[i].ProcessSampled(data, sc.encap[:0], f, hash, sampled, &sc.host)
		if err != nil {
			return err
		}
		hist, tier := c.dtel.hopNMux, tallyNMux
		if res.Tier == telemetry.TraceTierSMux {
			hist, tier = c.dtel.hopSMux, tallySMux
			sc.tally[tallyMode+int(res.Mode)]++
			if len(c.NMuxes) > 0 {
				sc.tally[tallyNMuxMiss]++
			}
		}
		sc.tally[tier]++
		if sampled {
			hist.Observe(c.rec.Now() - t0)
		}
		encapped, sc.encap, host = res.Packet, res.Packet, res.Encap
		c.hop(d, res.Tier, uint32(c.SMuxes[i].Self()), vip, trace)
	}

	// Host agent receive.
	agent, ok := snap.agents.Get(host)
	if !ok {
		//duet:allow hotpath error construction on the no-agent reject path only
		return fmt.Errorf("%w: %s", ErrNoHostAgent, host)
	}
	if sampled {
		t0 = c.rec.Now()
	}
	rx, err := agent.ReceiveSampled(encapped, out, f, hash, sampled, &sc.agent)
	if sampled {
		c.dtel.hopAgent.Observe(c.rec.Now() - t0)
	}
	if err != nil {
		return err
	}
	c.hop(d, telemetry.TraceTierHost, uint32(host), host, trace)
	d.VIP, d.DIP, d.Host, d.Packet = rx.VIP, rx.DIP, host, rx.Packet
	return nil
}

// hop records one tier's handling of a packet: always in the Delivery's hop
// list, and for a sampled packet as a trace-hop event keyed by the journey's
// trace ID — the same KindTraceHop events the wire nodes emit, so
// obs.StitchJourneys reconstructs in-process journeys identically.
//
//duet:hotpath
func (c *Cluster) hop(d *Delivery, tier telemetry.TraceTier, node uint32, dst packet.Addr, trace uint64) {
	d.hops.tier[d.hops.n], d.hops.node[d.hops.n] = tier, node
	d.hops.n++
	if trace != 0 {
		c.rec.Record(telemetry.KindTraceHop, node, uint32(tier), uint32(dst), trace)
	}
}

// Collect republishes point-in-time gauges: each mux tier's, through the
// tier's own collector over the up switches and the host fleets, and the
// snapshot epoch. It is the obs scrape pipeline's collector hook — called at
// the top of every scrape tick — and performs no allocation, so the tick
// stays allocation-free in steady state.
func (c *Cluster) Collect() {
	snap := c.snap.Load()
	c.ctel.hmux.Collect(snap.hmuxes...)
	c.ctel.smux.Collect(c.SMuxes...)
	c.ctel.nmux.Collect(c.NMuxes...)
	c.ctel.epoch.Set(int64(snap.epoch))
}

// BatchResult pairs one packet's delivery with its error.
type BatchResult struct {
	Delivery Delivery
	Err      error
}

// batchRun is how many consecutive packets a DeliverBatch worker claims at a
// time. A run costs one atomic add, one sampling draw, one arena allocation
// and one counter flush, and keeps neighbouring workers' result writes a run
// apart instead of a cache line apart; at 256 all of that is under a
// nanosecond per packet,
// while a 16,384-packet batch is still 64 runs to spread over the workers.
// Not a knob: nothing a caller knows picks a better value.
const batchRun = 256

// DeliverBatch pushes a batch of packets through the datapath on workers
// goroutines (the caller's included; ≤ 1 runs inline) and returns per-packet
// results in input order. Workers claim contiguous runs of batchRun packets.
// Each packet loads the current snapshot independently, so a batch racing
// control-plane churn can observe several generations — but every individual
// packet sees exactly one.
//
// Ownership: a worker owns its scratch for the length of the batch and each
// run it claims while it delivers it; the delivered packets of a run share
// one arena, which from then on belongs to the results — it is never pooled
// or reused, so callers keep Delivery.Packet as long as they keep the slice.
// The call reads every packet of a run once before it delivers any of them
// (deliverRun's sweep), so pkts is the caller's to read but not to write
// until the call returns: a caller that wrote a packet during the call was
// already racing with its delivery.
func (c *Cluster) DeliverBatch(pkts [][]byte, workers int) []BatchResult {
	results := make([]BatchResult, len(pkts))
	workers = max(1, min(workers, (len(pkts)+batchRun-1)/batchRun))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		sc := c.scratch.Get().(*scratch)
		defer c.scratch.Put(sc)
		for {
			lo := int(next.Add(1)-1) * batchRun
			if lo >= len(pkts) {
				return
			}
			hi := min(lo+batchRun, len(pkts))
			c.deliverRun(sc, pkts[lo:hi], results[lo:hi])
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	return results
}

// cacheLine is the stride of deliverRun's sweep: 64 B, the line of x86-64
// and most arm64 cores. On a 128 B-line core the sweep reads a line twice,
// which costs a load, not a miss.
const cacheLine = 64

// deliverRun delivers one run into results (same length as pkts). The arena
// is exactly Σ len(pkts[i]) bytes: what the host agent decapsulates from a
// mux's encapsulation is as long as the client's packet, TIP hop included.
// Each packet gets its own len(p)-capped window of it, so one that came out
// longer would reallocate rather than run into its neighbour.
//
// The loop that sizes the arena also sweeps the run: it reads one byte of
// every cache line of every packet, and the last byte (a packet that starts
// late in a line ends in the next), before the first packet is delivered. A batch's packets were written by another core (a
// generator, a flood harness, a NIC's DMA) and sit in separate allocations
// no hardware prefetcher follows, so each is a cache miss. The sweep's loads
// do not depend on each other and the core keeps many of those misses in
// flight at once; the pipeline then finds each header in cache instead of
// waiting out its miss alone, one packet at a time. A zero-length packet is
// skipped here and refused by packet.Parse as before.
func (c *Cluster) deliverRun(sc *scratch, pkts [][]byte, results []BatchResult) {
	size := 0
	var touch byte
	for _, p := range pkts {
		size += len(p)
		if n := len(p); n > 0 {
			for j := 0; j < n; j += cacheLine {
				touch ^= p[j]
			}
			touch ^= p[n-1]
		}
	}
	sc.touch = touch
	arena := make([]byte, size)
	samples := c.rec.SampleRun(len(pkts))
	var errs uint64
	off := 0
	for i, p := range pkts {
		end := off + len(p)
		if err := c.deliver(c.snap.Load(), p, sc, arena[off:off:end], &results[i].Delivery, samples.Sampled(i)); err != nil {
			results[i] = BatchResult{Err: err}
			errs++
		}
		off = end
	}
	c.flush(sc)
	c.dtel.packets.Add(uint64(len(pkts)))
	if errs > 0 {
		c.dtel.errors.Add(errs)
	}
}

// InstallTIP programs a TIP partition on a switch and records it for
// datapath resolution.
//
//duet:allow reach §5.2 large fan-out: the forwarding half is live (hmux+tip rows of the Deliver matrix); the controller-side partitioner that calls this lands with the collapse
func (c *Cluster) InstallTIP(tip packet.Addr, sw topology.SwitchID, backends []service.Backend) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.upLocked(sw) {
		return ErrSwitchDown
	}
	var w wiring
	for _, b := range backends {
		c.agentLocked(&w, b.Addr)
	}
	c.wireLocked(&w)
	if err := c.HMuxes[sw].AddTIP(tip, backends); err != nil {
		return err
	}
	s := *c.snap.Load()
	s.tipHome = s.tipHome.With(tip, sw)
	c.publish(s)
	return nil
}

// RegisterTIPBackends attaches the TIP partition's DIPs to a VIP on the host
// agents (so Receive accepts the inner packets).
//
//duet:allow reach second half of InstallTIP: same caller, same item
func (c *Cluster) RegisterTIPBackends(vip packet.Addr, backends []service.Backend) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var w wiring
	defer c.wireLocked(&w)
	for _, b := range backends {
		if err := c.agentLocked(&w, b.Addr).RegisterDIP(vip, b.Addr); err != nil {
			return err
		}
	}
	return nil
}
