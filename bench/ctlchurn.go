package main

import (
	"fmt"
	"math/rand"
	"time"
)

// ctlChurnWL measures the control loop in two stages, because the repository
// has two control stacks (ROADMAP: collapse them) and both must hold still
// when they are merged.
//
// Stage A, in-process placement: a 4-container fabric with NIC tables, a
// 2,000-VIP Fig-15 trace exactly as workload.Generate makes it (every rate
// drifts every epoch), controller.RunEpoch(0) during set-up and then
// RunEpochDelta per epoch; after each epoch two tracked flows per VIP are
// re-sent through the cluster. One operation is one epoch. The last
// sparseEpochs epochs of the trace are rewritten to the other side of the
// incremental engine, 1 % of the VIPs dirty, and reported as diagnostics.
//
// Stage B, wire replication: 2 controllers, 2 switch agents and 2 SMuxes
// (one with a NIC table) on loopback replicate 1,024 VIPs × 8 backends, a
// tenth of them churned every churnMS; the benchmark watches the controllers'
// epoch counters and every dataplane node's applied epoch. The latency
// metrics are the time from the leader's append to the last node's apply.
type ctlChurnWL struct {
	ps        placerSpec
	fleetVIPs int
	churnMS   int
	toy       bool

	p       *placer
	f       *fleet
	rng     *rand.Rand // picks the VIPs the sparse epochs drift
	vips    []uint32
	probes  [][]byte // two tracked flows per VIP
	probeOf []int32  // VIP index of each probe
	dips    []uint32 // DIP each probe reached when it was established
	epoch0  epochStats
	tracked int64 // tracked flows re-sent so far
	broken  int64 // … that reached another DIP while theirs was still configured
	traced  bool  // record a span around every black-box epoch
}

const (
	// watchChunk is how many convergence samples stage B takes between two
	// kernel runs, placeChunk how many epochs stage A runs.
	watchChunk = 4
	placeChunk = 2
	// sparseEpochs is how many epochs at the end of the trace are kept for
	// the 1 %-dirty side of the placement stage.
	sparseEpochs = 16
)

// ccDataplane are the nodes an epoch has to reach; the standby controller is
// synced before them by design and is checked at the end.
var ccDataplane = []string{"sw-1", "sw-2", "smux-1", "smux-2"}

// newCtlChurn sizes the workload. totalRate offers the fabric more than its
// HMuxes hold, so every epoch has VIPs to move, and well more: at the point
// where they just fill up (4e11, 74 % of epoch 0's traffic in hardware) the
// number of VIPs an epoch moves, and every per-epoch cost with it, differed by
// 22 % between seeds (inter-quartile range over median, eight seeds); at 6e11
// (half in hardware) by 6 %.
func newCtlChurn(toy bool) workload {
	w := &ctlChurnWL{
		ps: placerSpec{
			containers: 4, vips: 2000, epochs: 240, totalRate: 6e11,
			maxBackends: 4, nmuxTable: 2048,
		},
		fleetVIPs: 1024, churnMS: 50,
	}
	if toy {
		w.toy = true
		w.ps.vips, w.ps.epochs = 200, 16+sparseEpochs
		w.fleetVIPs = 96
	}
	return w
}

// ctlFleetSpec is stage B's fleet: VIPs in thirds HMux / smux_only /
// nic+hybrid, backends drawn from a pool of 64 hosts so the switch tunnel
// tables (512 entries) hold them.
func ctlFleetSpec(vips, churnMS int, seed int64) fleetSpec {
	rng := rand.New(rand.NewSource(seed))
	fs := fleetSpec{
		nodes: []fleetNode{
			{name: "ctl-1", role: roleController},
			{name: "ctl-2", role: roleController},
			{name: "sw-1", role: roleSwitch, self: "172.16.0.1"},
			{name: "sw-2", role: roleSwitch, self: "172.16.0.2"},
			{name: "smux-1", role: roleSMux, self: "20.0.0.1"},
			{name: "smux-2", role: roleSMux, self: "20.0.0.2", nmuxTable: 4096},
		},
		churnMS: churnMS, churnFrac: 0.1, churnSeed: seed,
	}
	for i := 0; i < vips; i++ {
		v := fleetVIP{addr: fmt.Sprintf("10.1.%d.%d", i>>8, i&0xff)}
		first := rng.Intn(64)
		for b := 0; b < 8; b++ {
			v.backends = append(v.backends, fmt.Sprintf("100.0.0.%d", 1+(first+b)%64))
		}
		switch i % 3 {
		case 1:
			v.smuxOnly = true
		case 2:
			v.smuxOnly, v.nic, v.mode = true, true, "hybrid"
		}
		fs.vips = append(fs.vips, v)
	}
	return fs
}

func (w *ctlChurnWL) setup(seed int64) error {
	w.ps.seed = seed
	p, err := newPlacer(w.ps)
	if err != nil {
		return err
	}
	w.p = p
	_, st, err := p.runEpoch(0)
	if err != nil {
		return fmt.Errorf("RunEpoch(0): %w", err)
	}
	w.epoch0 = st
	// Establish the tracked flows against the epoch-0 placement.
	w.rng = rand.New(rand.NewSource(seed))
	rng := w.rng
	w.vips = p.vipAddrs()
	for vi, vip := range w.vips {
		for k := 0; k < 2; k++ {
			pkt := buildTCP(addr4(30, 0, 0, 0)+uint32(rng.Intn(1<<24)), uint16(1024+rng.Intn(60000)), vip, flagACK, nil)
			d, err := p.deliver(pkt)
			if err != nil {
				return fmt.Errorf("VIP %s undeliverable after epoch 0: %w", addrString(vip), err)
			}
			w.probes = append(w.probes, pkt)
			w.probeOf = append(w.probeOf, int32(vi))
			w.dips = append(w.dips, d.dip)
		}
	}

	f, err := startFleet(ctlFleetSpec(w.fleetVIPs, w.churnMS, seed))
	if err != nil {
		return err
	}
	w.f = f
	hw := (w.fleetVIPs + 2) / 3
	ok := waitFor(15*time.Second, func() bool {
		if w.head() < 1 {
			return false
		}
		for _, n := range ccDataplane {
			if f.gauge(n, "wire.delta.epoch") < 1 {
				return false
			}
		}
		return f.gauge("sw-1", "wire.vips") >= int64(hw) && f.gauge("smux-1", "wire.vips") >= int64(w.fleetVIPs)
	})
	if !ok {
		return fmt.Errorf("replication fleet did not bootstrap within 15 s")
	}
	return nil
}

var ccControllers = []string{"ctl-1", "ctl-2"}

// head is the replicated log's head epoch. Each controller counts the epochs
// it appended itself, so the sum is the head whichever of them leads — also
// after a takeover, which this fleet exists to allow.
func (w *ctlChurnWL) head() uint64 {
	var h uint64
	for _, c := range ccControllers {
		h += w.f.counter(c, "wire.controller.epochs")
	}
	return h
}

// reached reports whether every dataplane node has applied epoch head.
func (w *ctlChurnWL) reached(head uint64) bool {
	for _, n := range ccDataplane {
		if uint64(w.f.gauge(n, "wire.delta.epoch")) < head {
			return false
		}
	}
	return true
}

func (w *ctlChurnWL) close() {
	if w.f != nil {
		w.f.close()
	}
}

// resend re-sends every tracked flow after an epoch: each must be deliverable
// and, while its DIP is still configured, reach the same DIP.
func (w *ctlChurnWL) resend(r *report) {
	for i, pkt := range w.probes {
		r.Attempted++
		d, err := w.p.deliver(pkt)
		if err != nil {
			r.Failed++
			r.violate("ctl-churn: VIP %s undeliverable after an epoch: %v", addrString(w.vips[w.probeOf[i]]), err)
			continue
		}
		w.tracked++
		if d.dip != w.dips[i] {
			if contains(w.p.backends(d.vip), w.dips[i]) {
				w.broken++
			}
			w.dips[i] = d.dip
		}
	}
}

// placeRun is what a run of placement epochs measured.
type placeRun struct {
	epochMS  []float64 // RunEpochDelta wall time per epoch
	moved    int       // VIPs migrated, all epochs together
	dirtyMin float64   // smallest and largest share of VIPs whose rate changed
	dirtyMax float64
	next     int // first epoch not run
}

// place runs RunEpochDelta over epochs [from, to) of the trace, stopping early
// once budget has passed, and re-sends the tracked flows after every epoch.
// With sparse set each epoch is first rewritten to a 1 %-dirty one. cal, when
// not nil, runs the kernel after every placeChunk-th epoch.
func (w *ctlChurnWL) place(from, to int, budget time.Duration, sparse bool, cal *calibrator, cost *costMeter, r *report) placeRun {
	run := placeRun{dirtyMin: 1, next: from}
	for end := time.Now().Add(budget); run.next < to && time.Now().Before(end); run.next++ {
		e := run.next
		if sparse {
			w.p.sparsify(e, w.rng)
		}
		share := w.p.dirtyShare(e)
		run.dirtyMin, run.dirtyMax = min(run.dirtyMin, share), max(run.dirtyMax, share)
		var el time.Duration
		var st epochStats
		var err error
		cost.start()
		if w.traced {
			spans.record("blackbox.epoch_delta", 0, e, func() int { el, st, err = w.p.runEpochDelta(e); return 1 })
		} else {
			el, st, err = w.p.runEpochDelta(e)
		}
		cost.stop()
		r.Attempted++
		if err != nil {
			r.Failed++
			r.violate("ctl-churn: RunEpochDelta(%d): %v", e, err)
			continue
		}
		run.epochMS = append(run.epochMS, float64(el.Nanoseconds())/1e6)
		run.moved += st.moved
		w.resend(r)
		if cal != nil && len(run.epochMS)%placeChunk == 0 {
			cal.tick()
		}
	}
	return run
}

func (w *ctlChurnWL) measure(d time.Duration, r *report) {
	// Stage B first, for 70 % of the window, then the fleet is stopped: its
	// churn would otherwise run beside stage A and be charged to it.
	var bcal calibrator
	conv := w.watchEpochs(d*7/10, &bcal, r)
	p50, p90 := quantile(conv, 0.5), quantile(conv, 0.9)
	scaled := bcal.scaleEach(conv, watchChunk)
	r.setCal("latency_p50_us", quantile(scaled, 0.5), p50, "us", len(conv))
	r.setCal("latency_p90_us", quantile(scaled, 0.9), p90, "us", len(conv))
	r.diag("epoch_converge_ms_p50", p50/1e3, "ms", len(conv))
	r.diag("epoch_converge_ms_p90", p90/1e3, "ms", len(conv))
	r.diag("bench.ref_ms.converge", bcal.refMedianNS()/1e6, "ms", len(bcal.ref))
	w.verdicts(r)
	w.f.close()

	// Stage A for the rest of the window: the generator's epochs, every VIP
	// dirty, one operation per epoch.
	var cal calibrator
	var cost costMeter
	cal.tick()
	full := w.place(1, w.ps.epochs-sparseEpochs, d*3/10, false, &cal, &cost, r)
	n := len(full.epochMS)
	if n == 0 {
		r.violate("ctl-churn: no placement epoch completed")
		return
	}
	raw := median(full.epochMS)
	r.setCal("ops_per_s", 1e3/median(cal.scaleEach(full.epochMS, placeChunk)), 1e3/raw, "1/s", n)
	cost.report(r, &cal, float64(n), n)
	perEpoch := float64(full.moved) / float64(n)
	r.diag("epoch_place_ms_p50", raw, "ms", n)
	r.diag("epoch_place_us_per_move", raw*1e3/max(perEpoch, 1), "us", n)
	r.diag("bench.ref_ms.place", cal.refMedianNS()/1e6, "ms", len(cal.ref))
	r.diag("assign.moved_per_epoch", perEpoch, "count", n)
	r.diag("assign.dirty_frac", full.dirtyMin, "ratio", n)
	r.diag("assign.hmux_traffic_frac", w.epoch0.hmuxTraffic, "ratio", 1)

	// The other side of the incremental engine, not gated: the same cluster
	// through epochs with 1 % of the VIPs dirty.
	sparse := w.place(w.ps.epochs-sparseEpochs, w.ps.epochs, time.Minute, true, nil, nil, r)
	r.diag("epoch_place_ms_p50.dirty1pct", median(sparse.epochMS), "ms", len(sparse.epochMS))
	r.diag("assign.dirty_frac.dirty1pct", sparse.dirtyMax, "ratio", len(sparse.epochMS))

	r.set("pcc_broken_frac", float64(w.broken)/float64(max(w.tracked, 1)), "ratio", int(w.tracked))
	r.set("failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio", int(r.Attempted))
	w.regime(full, sparse, r)
}

// regime asserts the placement regime the workload exists for: most traffic
// in hardware but not all, some VIPs on NICs, epochs that move VIPs, the dirty
// share each side of stage A claims, and no tracked flow broken by a
// migration. (A toy-scale trace has too few VIPs to be held to the shares.)
func (w *ctlChurnWL) regime(full, sparse placeRun, r *report) {
	r.assert(w.epoch0.hmuxTraffic >= 0.4 && w.epoch0.hmuxTraffic <= 0.9,
		"ctl-churn: epoch 0 put %.2f of traffic on HMuxes; the workload wants 0.4–0.9", w.epoch0.hmuxTraffic)
	r.assert(w.epoch0.nmuxVIPs > 0, "ctl-churn: epoch 0 put no VIP on the NIC tier")
	perEpoch := float64(full.moved) / float64(max(len(full.epochMS), 1))
	r.assert(w.toy || perEpoch >= 0.005*float64(w.ps.vips),
		"ctl-churn: steady epochs moved %.1f VIPs on average; the workload wants at least 0.5 %% of %d", perEpoch, w.ps.vips)
	// (All but the few heaviest VIPs, which sit at the generator's per-VIP cap.)
	r.assert(w.toy || full.dirtyMin >= 0.95, "ctl-churn: a generated epoch changed the rate of only %.3f of the VIPs; the generator's trace is expected to change nearly all", full.dirtyMin)
	r.assert(len(sparse.epochMS) == 0 || sparse.dirtyMax <= 0.01 && sparse.dirtyMin > 0,
		"ctl-churn: the sparse epochs changed %.4f–%.4f of the VIPs; they are meant to change at most 1 %%", sparse.dirtyMin, sparse.dirtyMax)
	r.assert(w.broken == 0, "ctl-churn: %d tracked flows changed DIP across a migration while theirs was still configured", w.broken)
}

// watchEpochs observes stage B for about d and returns one convergence sample
// (µs) per epoch: from the poll that first saw a controller's epoch counter
// advance to the poll that saw the last dataplane node apply it. An epoch
// that has not converged after 2 s is a failed operation, and so is a stretch
// of stallAfter without any new epoch. The kernel runs after every
// watchChunk-th sample, in the idle gap before the next churn tick; an epoch
// that began while it ran has no observed start and is not sampled.
func (w *ctlChurnWL) watchEpochs(d time.Duration, cal *calibrator, r *report) []float64 {
	const poll = 50 * time.Microsecond
	stallAfter := max(20*time.Duration(w.churnMS)*time.Millisecond, 2*time.Second)
	var conv []float64
	cal.tick()
	head := w.head()
	for end := time.Now().Add(d); time.Now().Before(end); {
		for stalled := time.Now().Add(stallAfter); w.head() == head && time.Now().Before(stalled); {
			time.Sleep(poll)
		}
		seen := time.Now()
		r.Attempted++
		if w.head() == head {
			r.Failed++
			r.violate("ctl-churn: no controller appended an epoch after %d within %v", head, stallAfter)
			continue
		}
		head++
		if !waitFor(2*time.Second, func() bool { return w.reached(head) }) {
			r.Failed++
			r.violate("ctl-churn: epoch %d had not reached every dataplane node after 2 s", head)
			continue
		}
		conv = append(conv, float64(time.Since(seen).Nanoseconds())/1e3)
		if len(conv)%watchChunk == 0 {
			cal.tick()
			if h := w.head(); h > head {
				waitFor(2*time.Second, func() bool { return w.reached(h) })
				head = h
			}
		}
	}
	return conv
}

// verdicts checks that replication stayed delta-only and that every node,
// and both controllers' logs, caught up with the head.
func (w *ctlChurnWL) verdicts(r *report) {
	head := w.head()
	caughtUp := waitFor(3*time.Second, func() bool {
		for _, c := range ccControllers {
			if uint64(w.f.gauge(c, "wire.delta.log_head")) < head {
				return false
			}
		}
		return w.reached(head)
	})
	r.assert(caughtUp, "ctl-churn: a node's applied epoch or a controller's wire.delta.log_head stayed behind the head %d", head)
	var calls, pushes, full, rejected uint64
	for _, c := range ccControllers {
		pushes += w.f.counter(c, "wire.controller.delta_pushes")
		calls += w.f.counter(c, "wire.control.calls")
		full += w.f.counter(c, "wire.controller.full_pushes")
	}
	for _, n := range ccDataplane {
		rejected += w.f.counter(n, "wire.delta.rejected")
	}
	r.assert(full == 0, "ctl-churn: the controllers made %d full pushes; replication must be deltas only", full)
	r.assert(rejected == 0, "ctl-churn: dataplane nodes rejected %d delta pushes", rejected)
	r.set("wire.full_pushes", float64(full), "count", 1)
	r.set("wire.delta_rejected", float64(rejected), "count", 1)
	r.set("wire.delta_pushes_per_epoch", float64(pushes)/float64(head), "count", int(head))
	r.set("wire.calls_per_epoch", float64(calls)/float64(head), "count", int(head))
}

// trace is the per-layer run: a short stage B for the replication counters,
// a few epochs of stage A, traced and untraced alternating, for the tracing
// overhead, and the probes of the layers the control loop works: the table writes on the placed cluster's VIPs, the control
// channel, the delta codec on stage B's 1,024-VIP state, and the placement
// engine on both sides of its dirty share.
func (w *ctlChurnWL) trace(d time.Duration, r *report) {
	var bcal calibrator
	conv := w.watchEpochs(d/5, &bcal, r)
	r.diag("epoch_converge_ms_p50", quantile(conv, 0.5)/1e3, "ms", len(conv))
	w.verdicts(r)
	fs := ctlFleetSpec(w.fleetVIPs, w.churnMS, w.ps.seed)
	w.f.close()

	// Eight black-box epochs, every second one inside a span.
	var perEpoch [2][]float64 // untraced, traced
	next := 1
	for k := 0; k < 8; k++ {
		w.traced = k%2 == 1
		run := w.place(next, next+1, time.Minute, false, nil, nil, r)
		perEpoch[k%2] = append(perEpoch[k%2], run.epochMS...)
		next = run.next
	}
	w.traced = false
	r.set("bench.trace_overhead_frac", median(perEpoch[1])/median(perEpoch[0])-1, "ratio", len(perEpoch[1]))

	// The rig holds the VIPs of the first 1,024 tracked flows, each on the
	// tier the placement gave it.
	probes := w.probes[:min(len(w.probes), probeBatch)]
	var vips []shapeVIP
	for vi := 0; vi < (len(probes)+1)/2; vi++ {
		vips = append(vips, shapeVIP{addr: w.vips[vi], dips: w.p.backends(w.vips[vi]), tier: w.p.tierOf(w.vips[vi])})
	}
	g, err := newRig(vips, probes)
	if err != nil {
		r.violate("ctl-churn: %v", err)
		return
	}
	deltaVIPs := make([]shapeVIP, len(fs.vips))
	for i, v := range fs.vips {
		sv := shapeVIP{addr: parseAddr(v.addr)}
		for _, b := range v.backends {
			sv.dips = append(sv.dips, parseAddr(b))
		}
		if v.mode == "hybrid" {
			sv.mode = 2
		}
		deltaVIPs[i] = sv
	}
	ps := &probeSet{rig: g, dp: newDeltaProbe(deltaVIPs, r.Seed), pl: w.p, from: next, rng: w.rng, budget: d / 160}
	if err := ps.run(r); err != nil {
		r.violate("ctl-churn: probes: %v", err)
		return
	}
	w.resend(r)
	w.p.tableCounts(r)
	r.set("assign.hmux_traffic_frac", w.epoch0.hmuxTraffic, "ratio", 1)
	r.set("pcc_broken_frac", float64(w.broken)/float64(max(w.tracked, 1)), "ratio", int(w.tracked))
	r.set("failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio", int(r.Attempted))
	r.assert(w.broken == 0, "ctl-churn: %d tracked flows changed DIP across a migration while theirs was still configured", w.broken)
}
