package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"duet/internal/clock"
	"duet/internal/delta"
	"duet/internal/ecmp"
	"duet/internal/hmux"
	"duet/internal/hostagent"
	"duet/internal/nmux"
	"duet/internal/obs"
	"duet/internal/packet"
	"duet/internal/smux"
	"duet/internal/telemetry"
)

// Node is one running duetd role: the role's dataplane machinery (reused
// unchanged from internal/smux, internal/hmux, internal/hostagent), its
// control server, its observability plane, and — for the controller — the
// anti-entropy push loops that keep every peer programmed.
type Node struct {
	Spec *ClusterSpec
	Me   *NodeSpec
	Reg  *telemetry.Registry
	Rec  *telemetry.Recorder
	Obs  *obs.Pipeline

	wall  func() float64         // monotonic seconds since StartNode (clock.Wall); also the obs scrape clock
	unix  func() float64         // epoch seconds (clock.Unix) stamping trace hops
	hosts map[packet.Addr]string // outer dst → UDP data endpoint

	// self32 is the node's dataplane identity as the flight-recorder node
	// field; smuxAddrs is the switch agent's aggregate route: the SMuxes a
	// packet its tables miss is forwarded to, hashed on the 5-tuple.
	self32    uint32
	smuxAddrs []packet.Addr

	dp      *Dataplane
	stages  stageCounters // the role's stages' per-packet counters, added to per burst
	ctl     *ControlServer
	httpLn  net.Listener
	httpSrv *http.Server

	// obs-role state: the fleet aggregator behind /cluster/*.
	agg      *obs.Aggregator
	stopPoll func()

	stopScrape func()
	wg         sync.WaitGroup
	closeOnce  sync.Once

	// role state (exactly one group is populated)
	pair  nmux.Pair // smux role: the SMux and its NIC table (nil unless NMuxTable > 0)
	agent *hostagent.Agent
	hm    *hmux.Mux // switch role: programmed by reconcileSwitch, under cfgMu

	vips      *telemetry.Gauge
	dips      *telemetry.Gauge
	traceHops telemetry.CounterShard
	delivered telemetry.CounterShard
	resyncs   telemetry.CounterShard

	// cfgMu guards the delta-replication receiver state: cfg mirrors the
	// leader's config (advanced only by cleanly applied deltas, so cfg.Epoch
	// is the applied epoch), and leaderTerm is the highest leadership term
	// seen, the fence that rejects a deposed leader's messages.
	cfgMu      sync.Mutex
	cfg        *delta.State
	leaderTerm uint64

	rep *replicator // controller role only

	deltaApplied  telemetry.CounterShard
	deltaRejected telemetry.CounterShard
	deltaEpochG   *telemetry.Gauge

	swOps    telemetry.CounterShard
	swOpErrs telemetry.CounterShard
}

// StartNode builds and starts the named node from the spec: it binds the
// role's sockets, starts the obs scrape loop and HTTP exposition, and (for
// the controller) launches the per-peer configuration push loops.
func StartNode(spec *ClusterSpec, name string) (*Node, error) {
	me, ok := spec.Node(name)
	if !ok {
		return nil, fmt.Errorf("wire: node %q not in spec", name)
	}
	n := &Node{
		Spec:  spec,
		Me:    me,
		Reg:   telemetry.NewRegistry(),
		Rec:   telemetry.NewRecorder(telemetry.DefaultRecorderSize),
		wall:  clock.Wall(),
		unix:  clock.Unix(),
		hosts: spec.HostMap(),
		cfg:   delta.NewState(),
	}
	n.deltaApplied = n.Reg.Counter("wire.delta.applied").Shard()
	n.deltaRejected = n.Reg.Counter("wire.delta.rejected").Shard()
	n.deltaEpochG = n.Reg.Gauge("wire.delta.epoch")
	n.Obs = obs.New(obs.Config{
		Registry: n.Reg,
		Recorder: n.Rec,
		Windows:  256,
		Now:      n.wall,
	})
	n.Obs.AddRules(obs.DefaultRules(obs.DefaultSLO())...) // cluster rules skip until their series exist
	n.Obs.AddRules(obs.WireRules(obs.DefaultSLO())...)

	var err error
	switch me.Role {
	case RoleSMux:
		err = n.startSMux()
	case RoleHostAgent:
		err = n.startHostAgent()
	case RoleSwitch:
		err = n.startSwitchAgent()
	case RoleController:
		err = n.startController()
	case RoleObs:
		err = n.startObs()
	default:
		err = fmt.Errorf("wire: unknown role %q", me.Role)
	}
	if err != nil {
		n.Close()
		return nil, err
	}
	if err := n.startHTTP(); err != nil {
		n.Close()
		return nil, err
	}
	scrape := time.Duration(spec.ScrapeMillis) * time.Millisecond
	if scrape <= 0 {
		scrape = time.Second
	}
	n.stopScrape = n.Obs.Start(scrape)
	return n, nil
}

// stageTally is what a receive burst's frames did in the node's stages: each
// stage counts into its Tally in the worker's tx batch, and the worker adds
// the burst to the stage counters when it ends (stageCounters.flush) — the
// count core.Cluster takes per run, taken per burst.
type stageTally struct {
	hmux  hmux.Tally
	host  nmux.PairTally
	agent hostagent.Tally
}

// stageCounters are the per-packet counters of the node's stages. A role
// resolves its own stages' and leaves the others zero, counting nothing, so
// a node exports no series for a stage it does not run.
type stageCounters struct {
	hmux  hmux.Counters
	host  nmux.PairCounters
	agent hostagent.Counters
}

// flush adds t to the counters and zeroes it.
//
//duet:hotpath
func (c *stageCounters) flush(t *stageTally) {
	c.hmux.Flush(&t.hmux)
	c.host.Flush(&t.host)
	c.agent.Flush(&t.agent)
}

// DataAddr returns the bound dataplane endpoint ("" for controllers).
func (n *Node) DataAddr() string {
	if n.dp == nil {
		return ""
	}
	return n.dp.Addr().String()
}

// ControlAddr returns the bound control endpoint.
func (n *Node) ControlAddr() string {
	if n.ctl == nil {
		return ""
	}
	return n.ctl.Addr()
}

// HTTPAddr returns the bound observability endpoint.
func (n *Node) HTTPAddr() string {
	if n.httpLn == nil {
		return ""
	}
	return n.httpLn.Addr().String()
}

func (n *Node) startHTTP() error {
	if n.Me.HTTP == "" {
		return nil
	}
	ln, err := net.Listen("tcp", n.Me.HTTP)
	if err != nil {
		return fmt.Errorf("wire: http listen %s: %w", n.Me.HTTP, err)
	}
	n.httpLn = ln
	h := obs.NewServer(n.Obs).Handler()
	if n.agg != nil {
		h = n.agg.Handler(h) // obs role: /cluster/* in front of the node views
	}
	n.httpSrv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.httpSrv.Serve(ln)
	}()
	return nil
}

// listenData binds the node's dataplane endpoint. traceEvery enables trace
// origination (mux tiers pass the spec's sampling rate; host agents pass 0 —
// a journey that starts at delivery has no downstream hops to stitch). It is
// the node's one sampling gate: the handlers hand a traced packet to the mux
// as sampled, so a journey's hops come with its pipeline events, and an
// untraced packet leaves neither.
func (n *Node) listenData(traceEvery int) error {
	dp, err := ListenDataplane(n.Me.Data, DataplaneConfig{
		Registry:   n.Reg,
		Recorder:   n.Rec,
		Node:       n.self32,
		TraceEvery: traceEvery,
	})
	if err != nil {
		return err
	}
	n.dp = dp
	n.traceHops = n.Reg.Counter("wire.trace.hops").Shard()
	return nil
}

// forward queues an encapsulated packet on the burst's tx batch toward the
// wire endpoint serving its outer destination, carrying the packet's trace
// ID (0 for the unsampled majority) so the journey continues on the next
// process. The frame leaves when the burst is flushed.
//
//duet:hotpath
func (n *Node) forward(tx *txBatch, encap packet.Addr, pkt []byte, trace uint64) {
	ep, ok := n.hosts[encap]
	if !ok {
		n.dp.DropNoRoute()
		return
	}
	_ = tx.queue(ep, pkt, trace) // an unreachable next hop is counted when the batch is flushed
}

// traceHop records one cross-process trace hop for a sampled packet: the
// tier that handled it, the packet's current destination, and the trace ID,
// stamped on the epoch clock so hops from different processes order into
// one timeline. No-op for the trace-less majority.
//
//duet:hotpath
func (n *Node) traceHop(tier telemetry.TraceTier, pkt []byte, trace uint64) {
	if trace == 0 {
		return
	}
	n.traceHops.Inc()
	var dst uint32
	if len(pkt) >= packet.HeaderLen {
		dst = binary.BigEndian.Uint32(pkt[16:20])
	}
	n.Rec.RecordAt(n.unix(), telemetry.KindTraceHop, n.self32, uint32(tier), dst, trace)
}

// dataplaneControl is the control handler of the smux, hostagent and switch
// roles: configuration reaches a dataplane node only as epoch deltas, and
// the roles differ only in how they reconcile the touched VIPs into their
// tables.
func (n *Node) dataplaneControl(reconcile func(ds []delta.Op) error) ControlHandler {
	return func(env, ack *Envelope) error {
		switch env.Type {
		case MsgHello:
			return nil
		case MsgDeltaPush:
			return n.handleLeader(env, ack, reconcile)
		}
		return fmt.Errorf("%s: unsupported control message %s", n.Me.Role, env.Type)
	}
}

// --- smux role ---------------------------------------------------------

func (n *Node) startSMux() error {
	self, err := n.Me.SelfAddr()
	if err != nil {
		return err
	}
	n.self32 = uint32(self)
	n.pair.SMux = smux.New(smux.DefaultConfig(self))
	n.pair.SMux.SetTelemetry(n.Reg, n.Rec, uint32(self))
	n.vips = n.Reg.Gauge("wire.vips")
	// The same collectors core.Cluster.Collect runs, so every watchdog on
	// the mux gauges works unchanged on wire nodes.
	sm := smux.NewGauges(n.Reg)
	n.Obs.AddCollector(func() { sm.Collect(n.pair.SMux) })
	if n.Me.NMuxTable > 0 {
		// The NIC table reads the SMux's steer table (the SMux owns writes),
		// so both tiers resolve a flow to identical encap bytes.
		n.pair.NIC = nmux.New(nmux.Config{SelfAddr: self, TableSize: n.Me.NMuxTable, Steer: n.pair.SMux.Steer()})
		n.pair.NIC.SetTelemetry(n.Reg, n.Rec, uint32(self))
		nic := nmux.NewGauges(n.Reg)
		n.Obs.AddCollector(func() { nic.Collect(n.pair.NIC) })
	}
	n.stages.host = nmux.NewPairCounters(n.Reg, n.pair.NIC != nil)
	if err := n.listenData(n.Spec.traceEvery()); err != nil {
		return err
	}
	n.dp.serve(n.smuxPacket, &n.stages)
	ctl, err := ListenControl(n.Me.Control, n.Reg, n.dataplaneControl(n.reconcileSMux))
	if err != nil {
		return err
	}
	n.ctl = ctl
	return nil
}

// smuxPacket is the smux role's frame handler: the node's host mux pair
// verifies the frame — a header from outside the process — through its first
// stage, and serves it, the NIC table first and the SMux on a table miss.
//
//duet:hotpath
func (n *Node) smuxPacket(tx *txBatch, payload, scratch []byte, trace uint64) []byte {
	f, err := n.pair.Parse(payload)
	if err != nil {
		return scratch // the first stage counted the drop
	}
	res, err := n.pair.ProcessSampled(payload, scratch[:0], f, ecmp.Hash(f.Tuple), trace != 0, &tx.tally.host)
	if err != nil {
		return scratch // the mux counted the drop
	}
	n.traceHop(res.Tier, payload, trace)
	n.forward(tx, res.Encap, res.Packet, trace)
	return res.Packet
}

// --- hostagent role ----------------------------------------------------

func (n *Node) startHostAgent() error {
	self, err := n.Me.SelfAddr()
	if err != nil {
		return err
	}
	n.self32 = uint32(self)
	n.agent = hostagent.New(self)
	n.agent.SetTelemetry(n.Reg, n.Rec, uint32(self))
	n.stages.agent = hostagent.NewCounters(n.Reg)
	n.dips = n.Reg.Gauge("wire.dips")
	n.delivered = n.Reg.Counter("wire.delivered").Shard()
	if err := n.listenData(0); err != nil {
		return err
	}
	n.dp.serve(n.hostPacket, &n.stages)
	ctl, err := ListenControl(n.Me.Control, n.Reg, n.dataplaneControl(n.reconcileHost))
	if err != nil {
		return err
	}
	n.ctl = ctl
	return nil
}

// hostPacket is the hostagent role's frame handler: the agent parses the
// packet inside the tunnel, a header new to this process, and verifies the
// tunnel header as it unwraps it.
//
//duet:hotpath
func (n *Node) hostPacket(tx *txBatch, payload, scratch []byte, trace uint64) []byte {
	f, err := n.agent.Parse(payload)
	if err != nil {
		return scratch // the agent counted the drop
	}
	d, err := n.agent.ReceiveSampled(payload, scratch[:0], f, ecmp.Hash(f.Tuple), trace != 0, &tx.tally.agent)
	if err != nil {
		return scratch // the agent counted the drop
	}
	n.delivered.Inc()
	n.traceHop(telemetry.TraceTierHost, payload, trace)
	return d.Packet
}

// --- switchagent role --------------------------------------------------

func (n *Node) startSwitchAgent() error {
	self, err := n.Me.SelfAddr()
	if err != nil {
		return err
	}
	n.self32 = uint32(self)
	hm := hmux.New(hmux.DefaultConfig(self))
	hm.SetTelemetry(n.Reg, n.Rec, uint32(self))
	n.hm = hm
	n.stages.hmux = hmux.NewCounters(n.Reg)
	tables := hmux.NewGauges(n.Reg)
	n.Obs.AddCollector(func() { tables.Collect(hm) }) // Stats takes the mux's own lock
	n.swOps = n.Reg.Counter("switchagent.ops").Shard()
	n.swOpErrs = n.Reg.Counter("switchagent.op_errors").Shard()
	n.vips = n.Reg.Gauge("wire.vips")
	// The aggregate route: a destination the HMux's tables do not hold
	// (SMuxOnly placement) is forwarded to one of these SMuxes.
	for i := range n.Spec.Nodes {
		p := &n.Spec.Nodes[i]
		if p.Role != RoleSMux || p.Self == "" {
			continue
		}
		if a, err := p.SelfAddr(); err == nil {
			n.smuxAddrs = append(n.smuxAddrs, a)
		}
	}
	if err := n.listenData(n.Spec.traceEvery()); err != nil {
		return err
	}
	n.dp.serve(n.switchPacket, &n.stages)
	ctl, err := ListenControl(n.Me.Control, n.Reg, n.dataplaneControl(n.reconcileSwitch))
	if err != nil {
		return err
	}
	n.ctl = ctl
	return nil
}

// switchPacket is the switch role's frame handler. The HMux verifies the
// frame, counting a malformed one as its own drop, and serves it from its
// tables. A table miss is not a drop: the packet follows the aggregate route,
// unchanged, to one of the spec's SMuxes — the paper's "VIP assigned to
// SMuxes" placement. Only a switch whose spec lists no SMux drops it, as a
// wire no-route drop.
//
//duet:hotpath
func (n *Node) switchPacket(tx *txBatch, payload, scratch []byte, trace uint64) []byte {
	f, err := n.hm.Parse(payload)
	if err != nil {
		return scratch // the mux counted the drop
	}
	hash := ecmp.Hash(f.Tuple)
	res, err := n.hm.ProcessSampled(payload, scratch[:0], f, hash, trace != 0, &tx.tally.hmux)
	switch {
	case err == hmux.ErrNotOurVIP && len(n.smuxAddrs) == 0:
		n.dp.DropNoRoute()
	case err == hmux.ErrNotOurVIP:
		n.traceHop(telemetry.TraceTierHMux, payload, trace)
		n.forward(tx, n.smuxAddrs[hash%uint64(len(n.smuxAddrs))], payload, trace)
	case err == nil:
		n.traceHop(telemetry.TraceTierHMux, payload, trace)
		n.forward(tx, res.Encap, res.Packet, trace)
		return res.Packet
	}
	return scratch // any other error is a drop the mux counted
}

// --- controller role ---------------------------------------------------

func (n *Node) startController() error {
	// A leader bootstraps its log from the spec's VIPs: a spec it cannot
	// project would leave every node unprogrammed, so it fails the start.
	boot, err := specState(n.Spec, 1)
	if err != nil {
		return err
	}
	n.resyncs = n.Reg.Counter("wire.controller.resyncs").Shard()
	n.Obs.AddRules(obs.ControllerRules(obs.DefaultSLO())...)
	n.rep = newReplicator(n, boot)
	ctl, err := ListenControl(n.Me.Control, n.Reg, n.controllerControl)
	if err != nil {
		return err
	}
	n.ctl = ctl
	n.rep.start()
	return nil
}

func (n *Node) controllerControl(env, ack *Envelope) error {
	switch env.Type {
	case MsgHello:
		return nil
	case MsgDeltaPush:
		return n.rep.handleLeader(env, ack)
	case MsgSnapshotRequest:
		return n.rep.handleSnapshotRequest(ack)
	}
	return fmt.Errorf("controller: unsupported control message %s", env.Type)
}

// Peer programming lives in ha.go: the leading controller's replicator
// ships every peer the epoch deltas it lacks (or the snapshot recovery
// push) until the peer acks the log head, probing with an empty push only a
// peer that is idle or whose epoch it does not know — the delta-first successor
// of the old full-config anti-entropy loop. A restarted (blank) peer is
// still fully reprogrammed within one resync interval plus the reconnect
// backoff — the cross-process Figure 12 recovery path.

// --- obs role -----------------------------------------------------------

// startObs builds the fleet aggregator: every spec node with an HTTP
// endpoint becomes a poll target, cluster-scope watchdogs join the node's
// own rule set, and startHTTP (which runs after the role switch) mounts the
// aggregator's /cluster/* views in front of the node views.
func (n *Node) startObs() error {
	var targets []obs.Target
	for i := range n.Spec.Nodes {
		p := &n.Spec.Nodes[i]
		if p.HTTP == "" || p.Name == n.Me.Name {
			continue
		}
		targets = append(targets, obs.Target{Name: p.Name, Role: p.Role, URL: "http://" + p.HTTP})
	}
	if len(targets) == 0 {
		return fmt.Errorf("wire: obs node %s has no peers with http endpoints to poll", n.Me.Name)
	}
	n.Obs.AddRules(obs.ClusterRules(obs.DefaultSLO())...)
	n.agg = obs.NewAggregator(obs.AggregatorConfig{
		Targets:  targets,
		Pipeline: n.Obs,
	})
	poll := time.Duration(n.Spec.ClusterPollMillis) * time.Millisecond
	if poll <= 0 {
		poll = time.Second
	}
	n.stopPoll = n.agg.Start(poll)
	return nil
}

// Close shuts every subsystem down and waits for the node's goroutines.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		if n.stopPoll != nil {
			n.stopPoll()
		}
		if n.stopScrape != nil {
			n.stopScrape()
		}
		if n.httpSrv != nil {
			_ = n.httpSrv.Close()
		}
		if n.rep != nil {
			n.rep.stop()
		}
		if n.ctl != nil {
			n.ctl.Close()
		}
		if n.dp != nil {
			n.dp.Close()
		}
		n.wg.Wait()
	})
}
