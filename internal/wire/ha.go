package wire

// Controller replication and high availability. Every controller runs a
// replicator: a delta log (internal/delta) holding the replicated config,
// a lease-based leader election, and — while leading — per-peer push
// sessions that keep the whole cluster at the log's head epoch.
//
// Election is bully-by-spec-order over the static controller list: the
// first controller leads at bootstrap (term 1), and a standby that has not
// heard a leader heartbeat for one lease starts a takeover at term+1 —
// staggered by its rank among the surviving controllers, so exactly one
// standby moves first. A deposed leader steps down the moment any peer
// answers with a higher term.
//
// The push protocol is one round trip per behind peer: the leader remembers
// each peer's acked epoch for this term, and a peer known to be behind gets
// exactly the missing deltas from the log tail, their encodings made once at
// append. A MsgLeaderHeartbeat, whose ack carries the peer's applied epoch,
// probes only a peer that is idle at the head (renewing its lease) or whose
// epoch is unknown — new this term, or forgotten after a transport error, so
// a blank restart is found by a probe rather than by a rejected push. Only a
// peer behind the compaction horizon gets the snapshot recovery push
// (counted separately — at steady state the full-push counter must not
// move). On epoch advance, standby controllers are synced before dataplane
// peers, so a takeover never needs a config the standby has not yet tailed.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"duet/internal/delta"
	"duet/internal/telemetry"
)

// replicator is one controller's replication + election state.
type replicator struct {
	n     *Node
	lease time.Duration

	mu         sync.Mutex
	log        *delta.Log
	leader     bool
	term       uint64
	leaderName string  // last known leader ("" before any)
	leaderSeen float64 // n.wall() seconds of the last valid heartbeat/push
	epochAt    float64 // n.wall() seconds of the last epoch advance
	acked      map[string]uint64

	ctrls    []*NodeSpec // spec controllers, election order
	rank     int         // my index in ctrls
	peers    []*NodeSpec // every other node with a control endpoint
	clients  map[string]*ControlClient
	wakes    map[string]chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	elections, epochs, deltaPushes, fullPushes telemetry.CounterShard
	termG, leaderG, epochAgeG                  *telemetry.Gauge
	logHeadG, logHorizonG, lagMaxG             *telemetry.Gauge
}

func newReplicator(n *Node) *replicator {
	lease := time.Duration(n.Spec.LeaseMillis) * time.Millisecond
	if lease <= 0 {
		lease = 2 * time.Second
	}
	r := &replicator{
		n:           n,
		lease:       lease,
		log:         delta.NewLog(n.Spec.DeltaTail),
		acked:       make(map[string]uint64),
		clients:     make(map[string]*ControlClient),
		wakes:       make(map[string]chan struct{}),
		stopped:     make(chan struct{}),
		elections:   n.Reg.Counter("wire.controller.elections").Shard(),
		epochs:      n.Reg.Counter("wire.controller.epochs").Shard(),
		deltaPushes: n.Reg.Counter("wire.controller.delta_pushes").Shard(),
		fullPushes:  n.Reg.Counter("wire.controller.full_pushes").Shard(),
		termG:       n.Reg.Gauge("wire.controller.term"),
		leaderG:     n.Reg.Gauge("wire.controller.leader"),
		logHeadG:    n.Reg.Gauge("wire.delta.log_head"),
		logHorizonG: n.Reg.Gauge("wire.delta.log_horizon"),
		lagMaxG:     n.Reg.Gauge("wire.delta.lag_max"),
	}
	// The epoch-age series exists only where it can stall: on a leader with
	// the churn driver on. Publishing it elsewhere would trip the
	// controller-epoch-stall watchdog on every idle standby.
	if n.Spec.ChurnMillis > 0 {
		r.epochAgeG = n.Reg.Gauge("wire.controller.epoch_age_ms")
	}
	r.ctrls = n.Spec.Controllers()
	for i, c := range r.ctrls {
		if c.Name == n.Me.Name {
			r.rank = i
		}
	}
	for i := range n.Spec.Nodes {
		p := &n.Spec.Nodes[i]
		if p.Name == n.Me.Name || p.Control == "" {
			continue
		}
		r.peers = append(r.peers, p)
		r.clients[p.Name] = DialControl(p.Control, n.Reg)
		r.wakes[p.Name] = make(chan struct{}, 1)
	}
	return r
}

// start launches the election loop, the per-peer push sessions, the churn
// driver, and the telemetry collector. The spec's first controller assumes
// leadership immediately (term 1); everyone else starts as a standby.
func (r *replicator) start() {
	now := r.n.wall()
	r.mu.Lock()
	r.leaderSeen, r.epochAt = now, now
	if r.rank == 0 {
		r.becomeLeaderLocked()
	}
	r.mu.Unlock()

	r.n.Obs.AddCollector(func() {
		r.mu.Lock()
		head := r.log.HeadEpoch()
		r.termG.Set(int64(r.term))
		if r.leader {
			r.leaderG.Set(1)
		} else {
			r.leaderG.Set(0)
		}
		r.logHeadG.Set(int64(head))
		r.logHorizonG.Set(int64(r.log.Horizon()))
		// Lag covers peers that have synced at least once under this
		// leadership: a peer that never answers (dead, e.g. the deposed
		// leader) is cluster-node-down's finding, not replication lag.
		var lag uint64
		if r.leader {
			for _, acked := range r.acked {
				if l := head - acked; l > lag {
					lag = l
				}
			}
		}
		r.lagMaxG.Set(int64(lag))
		if r.epochAgeG != nil {
			if r.leader {
				r.epochAgeG.Set(int64((r.n.wall() - r.epochAt) * 1000))
			} else {
				r.epochAgeG.Set(0)
			}
		}
		r.mu.Unlock()
	})

	r.wg.Add(1)
	go r.electionLoop()
	for _, p := range r.peers {
		r.wg.Add(1)
		go r.peerLoop(p)
	}
	if r.n.Spec.ChurnMillis > 0 {
		r.wg.Add(1)
		go r.churnLoop()
	}
}

func (r *replicator) stop() {
	r.stopOnce.Do(func() { close(r.stopped) })
	r.wg.Wait()
	for _, c := range r.clients {
		c.Close()
	}
}

// becomeLeaderLocked assumes leadership at term+1. A leader whose log is
// still empty bootstraps epoch 1 from the spec — deterministically, so a
// late-starting standby that was never pushed anything builds the exact
// state the original leader did.
func (r *replicator) becomeLeaderLocked() {
	r.term++
	r.leader = true
	r.leaderName = r.n.Me.Name
	r.acked = make(map[string]uint64) // sync state from any prior term is stale
	r.elections.Inc()
	if r.log.HeadEpoch() == 0 {
		if boot, err := specState(r.n.Spec, 1); err == nil {
			_ = r.log.Append(delta.Diff(delta.NewState(), boot), nil)
			r.epochs.Inc()
		}
	}
	r.epochAt = r.n.wall()
}

// stepDown yields to a higher term observed on the wire.
func (r *replicator) stepDown(term uint64) {
	r.mu.Lock()
	if term > r.term {
		r.term = term
		r.leader = false
	}
	r.mu.Unlock()
}

func (r *replicator) isLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leader
}

// standbyRank is this controller's takeover priority among the controllers
// that are not the (presumed dead) last-known leader: 0 moves after one
// lease, 1 after two, and so on.
func (r *replicator) standbyRankLocked() int {
	rank := 0
	for i := 0; i < r.rank; i++ {
		if r.ctrls[i].Name != r.leaderName {
			rank++
		}
	}
	return rank
}

// electionLoop watches the lease. Only standbys act here: a leader is
// deposed by evidence (a higher term on the wire), never by its own timer.
func (r *replicator) electionLoop() {
	defer r.wg.Done()
	tick := r.lease / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick) //duet:allow noclock real election cadence of the socket daemon
	defer t.Stop()
	for {
		select {
		case <-r.stopped:
			return
		case <-t.C:
		}
		now := r.n.wall()
		r.mu.Lock()
		if !r.leader {
			wait := r.lease.Seconds() * float64(1+r.standbyRankLocked())
			if now-r.leaderSeen > wait {
				r.becomeLeaderLocked()
				r.notifyAllLocked()
			}
		}
		r.mu.Unlock()
	}
}

func (r *replicator) notifyAllLocked() {
	for name := range r.wakes {
		r.wake(name)
	}
}

// wake nudges one peer's push session; a nudge already pending suffices.
func (r *replicator) wake(name string) {
	select {
	case r.wakes[name] <- struct{}{}:
	default:
	}
}

// churnLoop is the deterministic epoch driver (leader only; standbys tail
// the resulting deltas like any other peer).
func (r *replicator) churnLoop() {
	defer r.wg.Done()
	t := time.NewTicker(time.Duration(r.n.Spec.ChurnMillis) * time.Millisecond) //duet:allow noclock real epoch cadence of the socket daemon
	defer t.Stop()
	for {
		select {
		case <-r.stopped:
			return
		case <-t.C:
		}
		if r.isLeader() {
			r.advanceEpoch()
		}
	}
}

// advanceEpoch appends the next churn delta and syncs standby controllers
// before waking the dataplane sessions — the ordering that keeps a standby
// warm enough to take over without ever needing a full re-push. A standby
// the sync reached is not woken again: it is at the head.
func (r *replicator) advanceEpoch() {
	cur := r.log.Head()
	next := cur.Clone()
	churnMutate(next, r.n.Spec.ChurnSeed, r.n.Spec.ChurnFrac)
	r.mu.Lock()
	err := r.log.Append(delta.Diff(cur, next), nil)
	if err == nil {
		r.epochs.Inc()
		r.epochAt = r.n.wall()
	}
	r.mu.Unlock()
	if err != nil {
		return // lost leadership race; the new leader owns the log now
	}
	for _, p := range r.peers {
		if p.Role == RoleController && r.syncPeer(p) { // standbys first, synchronously
			continue
		}
		r.wake(p.Name)
	}
}

// peerLoop is one peer's push session: a sync round on the resync (or, for
// controller peers, lease/3) cadence and immediately on epoch advance. Idle
// while not leading.
func (r *replicator) peerLoop(peer *NodeSpec) {
	defer r.wg.Done()
	interval := time.Duration(r.n.Spec.ResyncMillis) * time.Millisecond
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if peer.Role == RoleController {
		if hb := r.lease / 3; hb < interval {
			interval = hb
		}
	}
	wake := r.wakes[peer.Name]
	for {
		if r.isLeader() {
			r.syncPeer(peer)
		}
		select {
		case <-r.stopped:
			return
		case <-wake:
		case <-time.After(interval): //duet:allow noclock real heartbeat cadence of the socket daemon
		}
	}
}

// syncPeer runs one push round and reports whether the peer acked the head.
// A peer whose acked epoch this term is known and behind the head is
// shipped the missing entries at once; any other is heartbeat-probed first.
func (r *replicator) syncPeer(peer *NodeSpec) bool {
	client := r.clients[peer.Name]
	r.mu.Lock()
	term, leader := r.term, r.leader
	peerEpoch, known := r.acked[peer.Name]
	r.mu.Unlock()
	if !leader {
		return false
	}
	head := r.log.HeadEpoch()
	if !known || peerEpoch >= head {
		ack, err := client.CallE(&Envelope{Type: MsgLeaderHeartbeat, Name: r.n.Me.Name, Term: term, Epoch: head})
		if err != nil {
			r.callFailed(peer.Name, term, ack)
			return false
		}
		peerEpoch = ack.Epoch
	}
	for peerEpoch < head {
		es, ok := r.log.Since(peerEpoch)
		if !ok {
			// Behind the compaction horizon: the recovery path.
			snap := r.log.Snapshot()
			ack, err := client.CallE(&Envelope{
				Type: MsgDeltaPush, Name: r.n.Me.Name, Term: term,
				Epoch: snap.ToEpoch, Delta: snap.Encode(),
			})
			if err != nil {
				r.callFailed(peer.Name, term, ack)
				return false
			}
			r.fullPushes.Inc()
			peerEpoch = ack.Epoch
			continue
		}
		for _, e := range es {
			ack, err := client.CallE(&Envelope{
				Type: MsgDeltaPush, Name: r.n.Me.Name, Term: term,
				Epoch: e.Delta.ToEpoch, Delta: e.Enc,
			})
			if err != nil {
				var rej *RejectedError
				if errors.As(err, &rej) && ack.Term <= term {
					peerEpoch = ack.Epoch // diverged mid-run (a gap); resume from its truth
					break
				}
				r.callFailed(peer.Name, term, ack)
				return false
			}
			r.deltaPushes.Inc()
			peerEpoch = ack.Epoch
		}
		head = r.log.HeadEpoch() // the log may have advanced while shipping
	}
	r.mu.Lock()
	if r.leader && r.term == term {
		r.acked[peer.Name] = peerEpoch
	}
	r.mu.Unlock()
	r.n.resyncs.Inc()
	return true
}

// callFailed handles a failed call to a peer: a higher term on the ack
// deposes this leader, and a transport failure (no ack) forgets the peer's
// epoch, so the next round probes whatever answers — a blank restart
// included — instead of pushing at it.
func (r *replicator) callFailed(peer string, term uint64, ack *Envelope) {
	switch {
	case ack == nil:
		r.mu.Lock()
		delete(r.acked, peer)
		r.mu.Unlock()
	case ack.Term > term:
		r.stepDown(ack.Term)
	}
}

// --- inbound side (controller handlers) ---------------------------------

// observeLeader records a valid heartbeat or push from the claimed leader.
// Returns false (and fills the ack with local truth) when the sender's term
// is stale — the signal that makes a deposed leader step down.
func (r *replicator) observeLeader(env, ack *Envelope) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ack.Type = MsgDeltaAck
	if env.Term < r.term {
		ack.Term = r.term
		ack.Epoch = r.log.HeadEpoch()
		return false
	}
	if env.Term > r.term || env.Name != r.leaderName {
		r.term = env.Term
		r.leaderName = env.Name
		if r.leader && env.Name != r.n.Me.Name {
			r.leader = false // equal-or-higher term from someone else wins
		}
	}
	r.leaderSeen = r.n.wall()
	ack.Term = r.term
	ack.Epoch = r.log.HeadEpoch()
	return true
}

// handleHeartbeat is the standby side of the lease.
func (r *replicator) handleHeartbeat(env, ack *Envelope) error {
	if !r.observeLeader(env, ack) {
		return errStaleTerm(env.Term, ack.Term)
	}
	return nil
}

// handleDeltaPush tails the leader's log: contiguous deltas append, a
// snapshot resets, and a gap is rejected with the ack carrying this log's
// head so the leader ships exactly the missing range.
func (r *replicator) handleDeltaPush(env, ack *Envelope) error {
	if !r.observeLeader(env, ack) {
		return errStaleTerm(env.Term, ack.Term)
	}
	d, err := delta.Decode(env.Delta)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d.Snapshot {
		st := delta.NewState()
		if err := d.Apply(st); err != nil {
			return err
		}
		r.log.Reset(st)
	} else if err := r.log.Append(d, env.Delta); err != nil {
		ack.Epoch = r.log.HeadEpoch()
		return err
	}
	ack.Epoch = r.log.HeadEpoch()
	return nil
}

// handleSnapshotRequest serves the log head as a snapshot delta on the ack
// — recovery and operator inspection (duetctl ha).
func (r *replicator) handleSnapshotRequest(ack *Envelope) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := r.log.Snapshot()
	ack.Type = MsgDeltaAck
	ack.Term = r.term
	ack.Epoch = snap.ToEpoch
	ack.Name = r.leaderName
	ack.Delta = snap.Encode()
	return nil
}

func errStaleTerm(got, have uint64) error {
	return fmt.Errorf("wire: stale leadership term %d (current %d)", got, have)
}
