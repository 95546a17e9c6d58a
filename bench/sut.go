package main

// sut.go is the benchmark's only doorway into the system under test: no
// other file imports duet/internal/.... The end-to-end drivers at the top use
// just the black-box surface (core.New/AddVIP/AssignTo*/SetVIPMode/
// DeliverBatch, testbed.NewFlood, controller.*, workload.Generate,
// wire.ClusterSpec/StartNode/AppendFrame/DecodeFrame, packet.Build*/
// Encapsulate, Node.Reg). The layer probes at the bottom each sit in their
// own function, so a signature change inside one layer breaks one probe, not
// a workload.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"time"

	"duet/internal/assign"
	"duet/internal/bgp"
	"duet/internal/controller"
	"duet/internal/core"
	"duet/internal/delta"
	"duet/internal/ecmp"
	"duet/internal/hmux"
	"duet/internal/hostagent"
	"duet/internal/nmux"
	"duet/internal/obs"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/telemetry"
	"duet/internal/testbed"
	"duet/internal/topology"
	"duet/internal/wire"
	wlgen "duet/internal/workload"
)

// addr4 packs a dotted quad the way packet.Addr does, so the rest of the
// benchmark can name addresses without importing the packet package.
func addr4(a, b, c, d byte) uint32 { return uint32(packet.AddrFrom4(a, b, c, d)) }

func addrString(a uint32) string { return packet.Addr(a).String() }

// TCP flag values for buildTCP.
const (
	flagSYN = packet.TCPSyn
	flagACK = packet.TCPAck
)

// buildTCP builds one client→VIP TCP segment of 40+payload bytes.
func buildTCP(src uint32, sport uint16, vip uint32, flags uint8, payload []byte) []byte {
	return packet.BuildTCP(packet.FiveTuple{
		Src: packet.Addr(src), Dst: packet.Addr(vip),
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP,
	}, flags, payload)
}

// ---------------------------------------------------------------------------
// In-process cluster (hw-steady, sw-churn, and stage A of ctl-churn).

// inprocSpec sizes the testbed.NewFlood cluster behind the two in-process
// dataplane workloads.
type inprocSpec struct {
	vips, dipsPerVIP int
	hmuxFrac         float64 // share of the VIPs (from the front) homed on HMuxes
	nmuxTable        int     // NIC table size fronting nmuxFrac of the VIPs
	nmuxFrac         float64
	mixedModes       bool // VIPs split in thirds stateful/stateless/hybrid
}

// inproc is a byte-accurate in-process cluster plus its controller.
type inproc struct {
	c    *core.Cluster
	ctl  *controller.Controller
	vips []uint32
	last []core.BatchResult // results of the latest deliverBatch, for visitLast
}

func newInproc(s inprocSpec) (*inproc, error) {
	cfg := testbed.FloodConfig{
		NumVIPs:       s.vips,
		DIPsPerVIP:    s.dipsPerVIP,
		HMuxFraction:  s.hmuxFrac,
		NMuxTableSize: s.nmuxTable,
	}
	if s.hmuxFrac == 0 {
		cfg.HMuxFraction = -1 // NewFlood reads 0 as its default of 0.75
	}
	f, err := testbed.NewFlood(cfg)
	if err != nil {
		return nil, err
	}
	p := &inproc{c: f.Cluster, ctl: controller.New(f.Cluster, assign.DefaultOptions())}
	for i, v := range f.VIPs {
		p.vips = append(p.vips, uint32(v))
		if s.mixedModes {
			if err := f.Cluster.SetVIPMode(v, steer.Modes()[i%3]); err != nil {
				return nil, err
			}
		}
		// NewFlood sizes its NIC slice from the HMux slice, which is negative
		// when no VIP is in hardware, so the NIC VIPs are assigned here.
		if float64(i) < s.nmuxFrac*float64(s.vips) {
			if err := f.Cluster.AssignToNMux(v); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// modeOf is the consistency mode newInproc gave VIP index i under mixedModes.
func modeOf(i int) string { return steer.Modes()[i%3].String() }

// backends returns the VIP's currently configured DIPs.
func (p *inproc) backends(vip uint32) []uint32 {
	v, ok := p.c.VIP(packet.Addr(vip))
	if !ok {
		return nil
	}
	out := make([]uint32, len(v.Backends))
	for i, b := range v.Backends {
		out[i] = uint32(b.Addr)
	}
	return out
}

// removeDIP and addDIP are the controller's §5.2 DIP operations.
func (p *inproc) removeDIP(vip, dip uint32) error {
	return p.ctl.RemoveDIP(packet.Addr(vip), packet.Addr(dip))
}

func (p *inproc) addDIP(vip, dip uint32) error {
	return p.ctl.AddDIP(packet.Addr(vip), service.Backend{Addr: packet.Addr(dip), Weight: 1})
}

// delivered is what the oracle needs from one delivery.
type delivered struct {
	vip, dip uint32
	pkt      []byte
}

// deliverBatch is the black-box call both in-process workloads time; it
// returns how long DeliverBatch took and keeps the results for visitLast.
func (p *inproc) deliverBatch(pkts [][]byte, workers int) time.Duration {
	t0 := time.Now()
	p.last = p.c.DeliverBatch(pkts, workers)
	return time.Since(t0)
}

// visitLast hands every result of the latest deliverBatch to visit, outside
// the timed window. A nil error means the packet was delivered.
func (p *inproc) visitLast(visit func(i int, d delivered, err error)) {
	for i := range p.last {
		d := &p.last[i].Delivery
		visit(i, delivered{vip: uint32(d.VIP), dip: uint32(d.DIP), pkt: d.Packet}, p.last[i].Err)
	}
}

// checkDelivered is the per-packet output oracle: the server must see the
// client's packet with only the destination rewritten to the chosen DIP.
func checkDelivered(sent []byte, d delivered) error {
	want := append([]byte(nil), sent...)
	if err := packet.RewriteDst(want, packet.Addr(d.dip)); err != nil {
		return err
	}
	if !bytes.Equal(want, d.pkt) {
		return fmt.Errorf("delivered packet differs from the client's packet rewritten to %s", addrString(d.dip))
	}
	return nil
}

// counter reads one counter of the cluster's telemetry registry.
func (p *inproc) counter(name string) uint64 {
	reg, _ := p.c.Telemetry()
	return reg.Counter(name).Value()
}

// ---------------------------------------------------------------------------
// In-process placement (stage A of ctl-churn): the paper's control loop —
// workload trace → assignment engine → migrations applied to a cluster.

// placerSpec sizes the placement stage.
type placerSpec struct {
	containers  int // fabric: containers × (8 ToRs + 2 Aggs), 4 Cores
	vips        int
	epochs      int
	totalRate   float64 // aggregate bps of epoch 0
	maxBackends int     // backends programmed per VIP (the engine sees the true DIP counts)
	nmuxTable   int
	seed        int64
}

// placer is an in-process cluster with its controller, and the trace the
// controller is driven from.
type placer struct {
	inproc
	w *wlgen.Workload
}

// epochStats is what the workload needs from one controller cycle.
type epochStats struct {
	moved       int
	hmuxTraffic float64 // share of the epoch's traffic placed on HMuxes
	nmuxVIPs    int
}

func newPlacer(s placerSpec) (*placer, error) {
	c, err := core.New(core.Config{
		Topology: topology.Config{
			Containers: s.containers, ToRsPerContainer: 8, AggsPerContainer: 2, Cores: 4, ServersPerToR: 20,
		},
		NumSMuxes:     4,
		Aggregate:     packet.MustParsePrefix("10.0.0.0/8"),
		NMuxTableSize: s.nmuxTable,
	})
	if err != nil {
		return nil, err
	}
	w, err := wlgen.Generate(wlgen.Config{
		NumVIPs: s.vips, TotalRate: s.totalRate, Epochs: s.epochs, Seed: s.seed,
		TrafficSkew: 1.6, MaxDIPs: 60, InternetFrac: 0.3, ChurnStdDev: 0.25,
	}, c.Topo)
	if err != nil {
		return nil, err
	}
	opts := assign.DefaultOptions()
	opts.Seed = s.seed
	// Without this the engine stops at the first VIP that does not fit
	// (§4.1) and a 2,000-VIP trace collapses to a few dozen placed VIPs.
	opts.ContinueOnFail = true
	opts.NMuxTableSize = s.nmuxTable
	ctl := controller.New(c, opts)
	if err := ctl.SyncVIPs(w, s.maxBackends, nil); err != nil {
		return nil, err
	}
	return &placer{inproc: inproc{c: c, ctl: ctl}, w: w}, nil
}

func epochStatsOf(rep controller.EpochReport) epochStats {
	return epochStats{moved: rep.Moved, hmuxTraffic: rep.AssignedFraction, nmuxVIPs: rep.NumNMux}
}

// runEpoch is the from-scratch cycle (RunEpoch); runEpochDelta the
// incremental one. Both return how long the call took.
func (p *placer) runEpoch(e int) (time.Duration, epochStats, error) {
	t0 := time.Now()
	rep, err := p.ctl.RunEpoch(p.w, e)
	return time.Since(t0), epochStatsOf(rep), err
}

func (p *placer) runEpochDelta(e int) (time.Duration, epochStats, error) {
	t0 := time.Now()
	rep, err := p.ctl.RunEpochDelta(p.w, e)
	return time.Since(t0), epochStatsOf(rep), err
}

// dirtyShare is the share of VIPs whose rate in epoch e differs from epoch
// e-1: the ones the incremental engine has to re-place. The generator drifts
// every rate every epoch (its Fig-15 churn), so its own epochs read close to
// 1: only the heaviest VIPs, held at the per-VIP cap, keep theirs.
func (p *placer) dirtyShare(e int) float64 {
	dirty := 0
	for i, rate := range p.w.Rates[e] {
		if rate != p.w.Rates[e-1][i] {
			dirty++
		}
	}
	return float64(dirty) / float64(len(p.w.Rates[e]))
}

// sparsify rewrites epoch e as epoch e-1 with one VIP in a hundred drifted by
// 30 %: the recipe of the repository's recorded incremental-placement point
// (BENCH_delta.json dirtypct=1, BenchmarkComputeDelta in internal/assign).
func (p *placer) sparsify(e int, rng *rand.Rand) {
	copy(p.w.Rates[e], p.w.Rates[e-1])
	for i := 0; i < len(p.w.VIPs)/100; i++ {
		p.w.Rates[e][rng.Intn(len(p.w.VIPs))] *= 1.3
	}
}

// vipAddrs lists the trace's VIP addresses in workload order.
func (p *placer) vipAddrs() []uint32 {
	out := make([]uint32, len(p.w.VIPs))
	for i := range p.w.VIPs {
		out[i] = uint32(p.w.VIPs[i].Addr)
	}
	return out
}

// deliver sends one packet through the cluster.
func (p *inproc) deliver(pkt []byte) (delivered, error) {
	d, err := p.c.Deliver(pkt)
	return delivered{vip: uint32(d.VIP), dip: uint32(d.DIP), pkt: d.Packet}, err
}

// ---------------------------------------------------------------------------
// Loopback fleet (wire-fleet, and stage B of ctl-churn): wire.StartNode in
// this process, which is all cmd/duetd's main does, over real UDP and TCP
// sockets on 127.0.0.1.

// fleetNode is one node of the fleet; role is a wire.Role* name.
type fleetNode struct {
	name, role, self string
	nmuxTable        int
}

// fleetVIP is one VIP of the fleet's spec.
type fleetVIP struct {
	addr     string
	backends []string
	smuxOnly bool
	nic      bool
	mode     string
}

// fleetSpec describes a fleet. tapSelf, when set, adds a host-agent entry
// whose data endpoint is a UDP socket the benchmark owns, so frames forwarded
// to that address can be read off the wire.
type fleetSpec struct {
	nodes     []fleetNode
	vips      []fleetVIP
	tapSelf   string
	churnMS   int
	churnFrac float64
	churnSeed int64
}

const (
	roleController = wire.RoleController
	roleSMux       = wire.RoleSMux
	roleHost       = wire.RoleHostAgent
	roleSwitch     = wire.RoleSwitch
)

// fleet is a running set of nodes.
type fleet struct {
	spec  *wire.ClusterSpec
	nodes map[string]*wire.Node
	names []string
	tap   *net.UDPConn
}

// nextPort walks the ports below the kernel's ephemeral range (32768 up), so
// a port reserved here cannot be taken by some node's outgoing connection
// between the reservation and the node's own bind — which binding port 0 and
// closing it again allowed.
var nextPort = 12000 + os.Getpid()%4000*4

// freePort reserves a loopback port of the given network: the next port that
// can be bound right now.
func freePort(network string) (string, error) {
	for tries := 0; tries < 2000; tries++ {
		nextPort++
		if nextPort >= 32000 {
			nextPort = 12000
		}
		addr := fmt.Sprintf("127.0.0.1:%d", nextPort)
		if network == "udp" {
			pc, err := net.ListenPacket("udp", addr)
			if err != nil {
				continue
			}
			pc.Close()
			return addr, nil
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		return addr, nil
	}
	return "", fmt.Errorf("no free loopback %s port", network)
}

// startFleet starts every node of fs and returns once they are listening;
// the caller waits for the control plane to converge with waitFor.
func startFleet(fs fleetSpec) (*fleet, error) {
	f := &fleet{nodes: map[string]*wire.Node{}}
	spec := &wire.ClusterSpec{
		ResyncMillis: 100,
		ChurnMillis:  fs.churnMS,
		ChurnFrac:    fs.churnFrac,
		ChurnSeed:    fs.churnSeed,
	}
	for _, n := range fs.nodes {
		ns := wire.NodeSpec{Name: n.name, Role: n.role, Self: n.self, NMuxTable: n.nmuxTable}
		var err error
		if ns.Control, err = freePort("tcp"); err != nil {
			return nil, err
		}
		if n.role != roleController {
			if ns.Data, err = freePort("udp"); err != nil {
				return nil, err
			}
		}
		spec.Nodes = append(spec.Nodes, ns)
	}
	if fs.tapSelf != "" {
		tap, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		f.tap = tap
		ctl, err := freePort("tcp") // never listened on: the controller's pushes to the tap retry harmlessly
		if err != nil {
			f.close()
			return nil, err
		}
		spec.Nodes = append(spec.Nodes, wire.NodeSpec{
			Name: "tap", Role: roleHost, Self: fs.tapSelf, Data: tap.LocalAddr().String(), Control: ctl,
		})
	}
	for _, v := range fs.vips {
		vs := wire.VIPSpec{Addr: v.addr, SMuxOnly: v.smuxOnly, Nic: v.nic, Mode: v.mode}
		for _, b := range v.backends {
			vs.Backends = append(vs.Backends, wire.BackendSpec{Addr: b})
		}
		spec.VIPs = append(spec.VIPs, vs)
	}
	if err := spec.Validate(); err != nil {
		f.close()
		return nil, err
	}
	f.spec = spec
	// Dataplane nodes start first and the controllers last, the bootstrap
	// leader (the first controller of the spec) last of all: every peer is
	// then listening when the leader bootstraps, so convergence takes one
	// push round and not a reconnect backoff.
	var order []string
	for _, n := range fs.nodes {
		if n.role != roleController {
			order = append(order, n.name)
		}
	}
	for i := len(fs.nodes) - 1; i >= 0; i-- {
		if fs.nodes[i].role == roleController {
			order = append(order, fs.nodes[i].name)
		}
	}
	for _, name := range order {
		node, err := wire.StartNode(spec, name)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		f.nodes[name] = node
		f.names = append(f.names, name)
	}
	return f, nil
}

// close stops every node and waits for their goroutines.
func (f *fleet) close() {
	for _, name := range f.names {
		f.nodes[name].Close()
	}
	f.names = nil
	if f.tap != nil {
		f.tap.Close()
	}
}

// counter and gauge read one node's telemetry registry (Node.Reg).
func (f *fleet) counter(node, name string) uint64 { return f.nodes[node].Reg.Counter(name).Value() }
func (f *fleet) gauge(node, name string) int64    { return f.nodes[node].Reg.Gauge(name).Value() }

// dataAddr is a node's UDP dataplane endpoint.
func (f *fleet) dataAddr(node string) string { return f.nodes[node].DataAddr() }

// waitFor polls cond every 200 µs until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// frame wraps one packet in the wire header; unframe strips it.
func frame(pkt []byte) []byte { return wire.AppendFrame(nil, pkt) }

func unframe(datagram []byte) ([]byte, error) { return wire.DecodeFrame(datagram) }

// encapsulate is the reference IP-in-IP encoding sampled wire bytes are
// compared with.
func encapsulate(src, dst uint32, inner []byte) ([]byte, error) {
	return packet.Encapsulate(nil, packet.Addr(src), packet.Addr(dst), inner, 64)
}

func parseAddr(s string) uint32 { return uint32(packet.MustParseAddr(s)) }

// ---------------------------------------------------------------------------
// Layer probes. A traced run times each layer's public functions on instances
// built apart from the black box, fed with the workload's own VIPs and
// packets. Every probe is one function; loop (trace.go) calls it in batches
// and records one span per batch, so timer cost amortises.

// shapeVIP is one VIP of the workload as the probes see it.
type shapeVIP struct {
	addr uint32
	dips []uint32
	tier string // "hmux", "nmux" or "smux": the tier that serves it in the black box
	mode int    // index into steer.Modes()
}

func (v shapeVIP) service() *service.VIP {
	sv := &service.VIP{Addr: packet.Addr(v.addr)}
	for _, d := range v.dips {
		sv.Backends = append(sv.Backends, service.Backend{Addr: packet.Addr(d), Weight: 1})
	}
	return sv
}

// rig holds one separately built instance of every dataplane layer,
// programmed with the workload's VIPs.
type rig struct {
	vips    []shapeVIP
	pkts    [][]byte // the workload's packets, grouped by class
	classes []rigClass
	tuples  []packet.FiveTuple
	hashes  []uint64
	encap   [][]byte // pkts as the mux tier emits them
	routes  *bgp.Table
	hm      *hmux.Mux
	nm      *nmux.Mux    // holds every VIP: all of pkts hit
	nmEmpty *nmux.Mux    // holds none: all of pkts miss
	sm      [3]*smux.Mux // one per consistency mode, all VIPs in that mode
	tbl     *steer.Table
	agent   *hostagent.Agent
	buf     []byte
	fresh   uint32 // next never-seen source for the new-flow probe
}

// rigClass is a run of rig packets whose VIPs share a serving tier and a
// consistency mode, so the ledger can send each through the right mux.
type rigClass struct {
	tier   string
	mode   int
	lo, hi int
}

var rigSelf = packet.AddrFrom4(192, 168, 0, 1)

// newRig programs every layer with vips and pre-computes the per-stage
// inputs of pkts (every packet must be addressed to one of vips).
func newRig(vips []shapeVIP, pkts [][]byte) (*rig, error) {
	g := &rig{vips: vips, routes: bgp.NewTable(), buf: make([]byte, 0, 4096)}
	byAddr := make(map[uint32]*shapeVIP, len(vips))
	for i := range vips {
		byAddr[vips[i].addr] = &vips[i]
	}
	classOf := func(p []byte) (string, int) {
		if t, err := packet.ExtractFiveTuple(p); err == nil {
			if v := byAddr[uint32(t.Dst)]; v != nil {
				if v.tier == "smux" {
					return v.tier, v.mode
				}
				return v.tier, 0
			}
		}
		return "", 0
	}
	pkts = append([][]byte(nil), pkts...)
	sort.SliceStable(pkts, func(i, j int) bool {
		ti, mi := classOf(pkts[i])
		tj, mj := classOf(pkts[j])
		return ti < tj || ti == tj && mi < mj
	})
	g.pkts = pkts
	for i, p := range pkts {
		t, m := classOf(p)
		if t == "" {
			return nil, fmt.Errorf("rig: packet %d is not addressed to one of the workload's VIPs", i)
		}
		if k := len(g.classes) - 1; k >= 0 && g.classes[k].tier == t && g.classes[k].mode == m {
			g.classes[k].hi = i + 1
		} else {
			g.classes = append(g.classes, rigClass{tier: t, mode: m, lo: i, hi: i + 1})
		}
	}
	// Switch tables sized for the largest workload (1,024 VIPs × 8 DIPs).
	hcfg := hmux.DefaultConfig(rigSelf)
	hcfg.ECMPTableSize, hcfg.TunnelTableSize, hcfg.ECMPGroupTableSize = 1<<16, 1<<14, 1<<12
	g.hm = hmux.New(hcfg)
	g.nm = nmux.New(nmux.Config{SelfAddr: rigSelf, TableSize: 1 << 20})
	g.nmEmpty = nmux.New(nmux.Config{SelfAddr: rigSelf, TableSize: 64})
	g.tbl = steer.NewTable(steer.Config{})
	g.agent = hostagent.New(packet.AddrFrom4(100, 0, 0, 1))
	for m, mode := range steer.Modes() {
		cfg := smux.DefaultConfig(rigSelf)
		cfg.DefaultMode = mode
		g.sm[m] = smux.New(cfg)
	}
	g.routes.Announce(packet.MustParsePrefix("10.0.0.0/8"), 1<<20, 0)
	for i, v := range vips {
		sv := v.service()
		if err := g.hm.AddVIP(sv); err != nil {
			return nil, fmt.Errorf("rig hmux: %w", err)
		}
		if err := g.nm.AddVIP(sv); err != nil {
			return nil, fmt.Errorf("rig nmux: %w", err)
		}
		if err := g.tbl.Add(sv); err != nil {
			return nil, fmt.Errorf("rig steer: %w", err)
		}
		for _, sm := range g.sm {
			if err := sm.AddVIP(sv); err != nil {
				return nil, fmt.Errorf("rig smux: %w", err)
			}
		}
		// One agent stands for every host: Receive does not look at the
		// outer destination, and one local DIP per VIP is the common case.
		if err := g.agent.RegisterDIP(sv.Addr, packet.AddrFrom4(100, byte(i>>16), byte(i>>8), byte(i))); err != nil {
			return nil, fmt.Errorf("rig hostagent: %w", err)
		}
		if v.tier == "hmux" {
			g.routes.Announce(packet.HostPrefix(sv.Addr), bgp.NodeID(i%8), 0)
		}
	}
	g.tuples = make([]packet.FiveTuple, len(pkts))
	g.hashes = make([]uint64, len(pkts))
	g.encap = make([][]byte, len(pkts))
	for i, p := range pkts {
		t, err := packet.ExtractFiveTuple(p)
		if err != nil {
			return nil, err
		}
		g.tuples[i], g.hashes[i] = t, ecmp.Hash(t)
		res, err := g.hm.Process(p, nil)
		if err != nil {
			return nil, fmt.Errorf("rig: packet %d: %w", i, err)
		}
		g.encap[i] = res.Packet
		// Warm every stateful table so the steady-state probes see hits.
		if _, err := g.nm.Process(p, g.buf[:0]); err != nil {
			return nil, err
		}
		for _, sm := range g.sm {
			if _, err := sm.Process(p, g.buf[:0]); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// probeSink keeps probe results live.
var probeSink uint64

// Each probe below runs its layer over packets [lo,hi) and returns the
// number of operations it performed.

func (g *rig) probeExtract(lo, hi int) int {
	for _, p := range g.pkts[lo:hi] {
		t, _ := packet.ExtractFiveTuple(p)
		probeSink += uint64(t.SrcPort)
	}
	return hi - lo
}

func (g *rig) probeHash(lo, hi int) int {
	for _, t := range g.tuples[lo:hi] {
		probeSink += ecmp.Hash(t)
	}
	return hi - lo
}

func (g *rig) probePick(lo, hi int) int {
	snap := g.routes.Snapshot()
	for i := lo; i < hi; i++ {
		nh, _, _ := snap.Pick(g.tuples[i].Dst, 1, g.hashes[i])
		probeSink += uint64(nh)
	}
	return hi - lo
}

func (g *rig) probeEncap(lo, hi int) int {
	for _, p := range g.pkts[lo:hi] {
		out, _ := packet.Encapsulate(g.buf[:0], rigSelf, rigSelf, p, 64)
		probeSink += uint64(len(out))
	}
	return hi - lo
}

func (g *rig) probeDecap(lo, hi int) int {
	for _, p := range g.encap[lo:hi] {
		inner, _, _ := packet.Decapsulate(p)
		probeSink += uint64(len(inner))
	}
	return hi - lo
}

func (g *rig) probeHMux(lo, hi int) int {
	for _, p := range g.pkts[lo:hi] {
		res, _ := g.hm.Process(p, g.buf[:0])
		probeSink += uint64(res.Encap)
	}
	return hi - lo
}

func (g *rig) probeNMuxHit(lo, hi int) int {
	for _, p := range g.pkts[lo:hi] {
		res, _ := g.nm.Process(p, g.buf[:0])
		probeSink += uint64(res.Encap)
	}
	return hi - lo
}

func (g *rig) probeNMuxMiss(lo, hi int) int {
	for _, p := range g.pkts[lo:hi] {
		if _, err := g.nmEmpty.Process(p, g.buf[:0]); err == nil {
			probeSink++
		}
	}
	return hi - lo
}

// probeSMux times the software mux in one consistency mode on established
// flows.
func (g *rig) probeSMux(mode int) func(lo, hi int) int {
	return func(lo, hi int) int {
		sm := g.sm[mode]
		for _, p := range g.pkts[lo:hi] {
			res, _ := sm.Process(p, g.buf[:0])
			probeSink += uint64(res.Encap)
		}
		return hi - lo
	}
}

// probeSMuxNewFlow sends never-seen 5-tuples through the stateful mux: a
// connection-table insert per packet. Packet building is outside the span.
func (g *rig) newFlows(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		g.fresh++
		out[i] = buildTCP(uint32(packet.AddrFrom4(50, 0, 0, 0))+g.fresh, uint16(1024+g.fresh%60000), g.vips[int(g.fresh)%len(g.vips)].addr, flagSYN, nil)
	}
	return out
}

func (g *rig) probeSMuxNewFlow(pkts [][]byte) int {
	for _, p := range pkts {
		res, _ := g.sm[0].Process(p, g.buf[:0])
		probeSink += uint64(res.Encap)
	}
	return len(pkts)
}

func (g *rig) probeSteerLookup(lo, hi int) int {
	for _, t := range g.tuples[lo:hi] {
		d, _ := g.tbl.Lookup(t)
		probeSink += uint64(d)
	}
	return hi - lo
}

// The table-update probes reprogram VIP k%len with its own backend set: the
// cost of one control-plane write (copy-on-write generation, slot rebuild).

func (g *rig) probeSteerUpdate(k int) int {
	_ = g.tbl.Update(g.vips[k%len(g.vips)].service())
	return 1
}

func (g *rig) probeSMuxUpdateVIP(k int) int {
	_ = g.sm[0].UpdateVIP(g.vips[k%len(g.vips)].service())
	return 1
}

func (g *rig) probeHMuxAddVIP(k int) int {
	v := g.vips[k%len(g.vips)].service()
	_ = g.hm.RemoveVIP(v.Addr)
	_ = g.hm.AddVIP(v)
	return 1
}

func (g *rig) probeReceive(lo, hi int) int {
	for _, p := range g.encap[lo:hi] {
		d, _ := g.agent.Receive(p, g.buf[:0])
		probeSink += uint64(d.DIP)
	}
	return hi - lo
}

// connBytesPerFlow is the stateful mux's connection-table footprint.
func (g *rig) connBytesPerFlow() float64 {
	st := g.sm[0].ConnStats()
	if st.Entries == 0 {
		return 0
	}
	return float64(st.Bytes) / float64(st.Entries)
}

// probeFrame is the wire framing round trip of one packet.
func (g *rig) probeFrame(lo, hi int) int {
	for _, p := range g.pkts[lo:hi] {
		f := wire.AppendFrame(g.buf[:0], p)
		out, tr, _ := wire.DecodeFrameTrace(f)
		probeSink += uint64(len(out)) + tr
	}
	return hi - lo
}

// wireProbe is a private pair of dataplane endpoints on loopback: tx sends,
// rx receives into a no-op handler, so what is timed is the syscall, the
// buffer pool and the worker channel, and no mux.
type wireProbe struct {
	tx, rx *wire.Dataplane
	reg    *telemetry.Registry
	ep     string
	ctl    *wire.ControlServer
	client *wire.ControlClient
}

func newWireProbe() (*wireProbe, error) {
	w := &wireProbe{reg: telemetry.NewRegistry()}
	var err error
	if w.rx, err = wire.ListenDataplane("127.0.0.1:0", wire.DataplaneConfig{Registry: w.reg}); err != nil {
		return nil, err
	}
	w.rx.Serve(func(payload, scratch []byte, trace uint64) []byte { return scratch })
	if w.tx, err = wire.ListenDataplane("127.0.0.1:0", wire.DataplaneConfig{Registry: telemetry.NewRegistry()}); err != nil {
		w.close()
		return nil, err
	}
	w.ep = w.rx.Addr().String()
	if w.ctl, err = wire.ListenControl("127.0.0.1:0", w.reg, func(env, ack *wire.Envelope) error { return nil }); err != nil {
		w.close()
		return nil, err
	}
	w.client = wire.DialControl(w.ctl.Addr(), w.reg)
	return w, nil
}

func (w *wireProbe) close() {
	if w.client != nil {
		w.client.Close()
	}
	if w.ctl != nil {
		w.ctl.Close()
	}
	if w.tx != nil {
		w.tx.Close()
	}
	if w.rx != nil {
		w.rx.Close()
	}
}

func (w *wireProbe) received() uint64 { return w.reg.Counter("wire.rx.frames").Value() }

// probeSend is Dataplane.Send alone: frame, pooled buffer, write syscall.
// The receiver drains concurrently; sendRecv waits for it.
func (w *wireProbe) probeSend(pkts [][]byte) int {
	for _, p := range pkts {
		_ = w.tx.Send(w.ep, p)
	}
	return len(pkts)
}

// probeSendRecv sends a burst and waits until the receiving endpoint has
// handled all of it: per frame, the slower of the send and the receive side.
func (w *wireProbe) probeSendRecv(pkts [][]byte) int {
	want := w.received() + uint64(len(pkts))
	w.probeSend(pkts)
	waitFor(200*time.Millisecond, func() bool { return w.received() >= want })
	return len(pkts)
}

// probeControlRTT is one control-channel echo (CallE of a hello).
func (w *wireProbe) probeControlRTT() int {
	_, _ = w.client.CallE(&wire.Envelope{Type: wire.MsgHello})
	return 1
}

// deltaProbe holds a replicated state of the workload's VIPs and the same
// state with a tenth of the VIPs touched, as one churn epoch leaves it.
type deltaProbe struct {
	from, to *delta.State
	d        *delta.Delta
	enc      []byte
}

func newDeltaProbe(vips []shapeVIP, seed int64) *deltaProbe {
	st := delta.NewState()
	st.Epoch = 1
	for _, v := range vips {
		vs := &delta.VIPState{Addr: packet.Addr(v.addr), Mode: steer.Modes()[v.mode], Tier: delta.TierSMux, Switch: delta.Unassigned}
		ds := append([]uint32(nil), v.dips...)
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		for i, d := range ds {
			if i > 0 && d == ds[i-1] {
				continue
			}
			vs.Backends = append(vs.Backends, delta.Backend{Addr: packet.Addr(d), Weight: 1})
		}
		st.VIPs[vs.Addr] = vs
	}
	to := st.Clone()
	to.Epoch = 2
	rng := rand.New(rand.NewSource(seed))
	addrs := to.Addrs()
	for i := 0; i < (len(addrs)+9)/10; i++ {
		v := to.VIPs[addrs[rng.Intn(len(addrs))]]
		for j := range v.Backends {
			v.Backends[j].Weight = 1 + v.Backends[j].Weight%8
		}
	}
	p := &deltaProbe{from: st, to: to}
	p.d = delta.Diff(st, to)
	p.enc = p.d.Encode()
	return p
}

func (p *deltaProbe) probeDiff() int {
	probeSink += uint64(len(delta.Diff(p.from, p.to).Ops))
	return 1
}
func (p *deltaProbe) probeEncode() int {
	probeSink += uint64(len(p.d.Encode()))
	return 1
}
func (p *deltaProbe) probeDecode() int {
	d, _ := delta.Decode(p.enc)
	probeSink += uint64(len(d.Ops))
	return 1
}

// deltaState is the replicated state the apply probe works on.
type deltaState = delta.State

// probeApply applies the delta to a fresh copy of the base state; the copy is
// made by prepareApply, outside the span.
func (p *deltaProbe) prepareApply() *deltaState { return p.from.Clone() }
func (p *deltaProbe) probeApply(st *deltaState) int {
	_ = p.d.Apply(st)
	return 1
}
func (p *deltaProbe) bytesPerEpoch() float64 { return float64(len(p.enc)) }

// The placement probes run on a placer. assignDelta and assignCompute time
// the engine alone for the next epoch (without applying it); epochDelta is
// the whole incremental controller cycle, epochFull the from-scratch one.

func (p *placer) probeAssignDelta(e int) (time.Duration, error) {
	t0 := time.Now()
	_, err := assign.ComputeDelta(p.c.Net, p.w, e, p.ctl.Previous(), p.ctl.Opts)
	return time.Since(t0), err
}

func (p *placer) probeAssignCompute(e int) (time.Duration, error) {
	t0 := time.Now()
	_, err := assign.Compute(p.c.Net, p.w, e, p.ctl.Opts)
	return time.Since(t0), err
}

func (p *placer) numVIPs() int   { return len(p.w.VIPs) }
func (p *placer) numEpochs() int { return p.w.NumEpochs() }

// obsProbe is a scrape pipeline over a registry, with the cluster's Collect
// hook when there is a cluster.
type obsProbe struct{ p *obs.Pipeline }

func newObsProbe(c *core.Cluster) *obsProbe {
	reg, rec := c.Telemetry()
	p := obs.New(obs.Config{Registry: reg, Recorder: rec, Windows: 64})
	p.AddCollector(c.Collect)
	p.AddRules(obs.DefaultRules(obs.DefaultSLO())...)
	for i := 0; i < 3; i++ { // warm the series cache and histogram buffers
		p.Tick()
	}
	return &obsProbe{p}
}

func (o *obsProbe) probeTick() int { o.p.Tick(); return 1 }

func (p *inproc) obsProbe() *obsProbe { return newObsProbe(p.c) }

// tableCounts reports the NIC-table and steer-table counters of an in-process
// cluster from its telemetry registry.
func (p *inproc) tableCounts(r *report) {
	if hit, miss := p.counter("core.deliver.tier.nmux"), p.counter("core.deliver.tier.nmux_miss"); hit+miss > 0 {
		r.set("nmux.hit_frac", float64(hit)/float64(hit+miss), "ratio", int(hit+miss))
	}
	r.set("nmux.rejected_full", float64(p.counter("nmux.flow.rejected_full")), "count", 1)
	r.set("steer.epochs", float64(p.collectGauge("steer.epoch_max")), "count", 1)
	r.set("steer.drain_active_frac", float64(p.collectGauge("steer.drains_active"))/float64(len(p.c.SMuxes)), "ratio", len(p.c.SMuxes))
}

// tierOf names the tier that serves a VIP of the placed cluster right now.
func (p *placer) tierOf(vip uint32) string {
	if _, ok := p.c.HomeOf(packet.Addr(vip)); ok {
		return "hmux"
	}
	if p.c.NMuxHosted(packet.Addr(vip)) {
		return "nmux"
	}
	return "smux"
}

// collectGauge reads one gauge of the cluster's registry after a Collect.
func (p *inproc) collectGauge(name string) int64 {
	p.c.Collect()
	reg, _ := p.c.Telemetry()
	return reg.Gauge(name).Value()
}

// deliverSerial pushes packets one by one through Deliver (no batch pool),
// for the batch-overhead rung.
func (p *inproc) deliverSerial(pkts [][]byte) int {
	for _, pk := range pkts {
		d, _ := p.c.Deliver(pk)
		probeSink += uint64(d.DIP)
	}
	return len(pkts)
}
