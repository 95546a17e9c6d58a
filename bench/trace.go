package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the layer's public functions. Spans of one sampled batch share Batch; a
// child names the span that caused it in Parent. A layer's self time is its
// span's duration minus its children's.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Batch   int    `json:"batch"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since process start
	EndNS   int64  `json:"end_ns"`
	Ops     int    `json:"ops"` // operations covered, so ns/op = (end-start)/ops
}

// spanLog keeps spans in memory until the run ends. Only the benchmark's
// main goroutine records.
type spanLog struct{ spans []span }

var spans spanLog

func (l *spanLog) reset() { l.spans = l.spans[:0] }

// record times fn as one span and returns the span's ID and duration; fn
// returns how many operations it performed.
func (l *spanLog) record(name string, parent, batch int, fn func() int) (int, time.Duration) {
	t0 := time.Now()
	ops := fn()
	t1 := time.Now()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Batch: batch, Name: name,
		StartNS: t0.Sub(processStart).Nanoseconds(), EndNS: t1.Sub(processStart).Nanoseconds(), Ops: ops,
	})
	return id, t1.Sub(t0)
}

func (l *spanLog) writeFile(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timeSpans calls batch(k) for k = 0, 1, … until budget has passed (at least
// three times), recording one span per call, and returns every call's time
// per operation in ns. batch returns how many operations it performed; prep,
// when not nil, runs before each call, outside its span.
func timeSpans(name string, budget time.Duration, prep func(k int), batch func(k int) int) []float64 {
	var out []float64
	end := time.Now().Add(budget)
	for k := 0; k < 3 || time.Now().Before(end); k++ {
		if prep != nil {
			prep(k)
		}
		ops := 0
		_, el := spans.record(name, 0, k, func() int { ops = batch(k); return ops })
		if ops > 0 {
			out = append(out, float64(el.Nanoseconds())/float64(ops))
		}
	}
	return out
}

// probeBatch is how many packets one dataplane probe span covers.
const probeBatch = 1024

// ranged adapts a probe over packet ranges to timeSpans: call k covers the
// k-th window of probeBatch packets, cycling over the n the rig holds.
func ranged(n int, fn func(lo, hi int) int) func(k int) int {
	windows := max(n/probeBatch, 1)
	return func(k int) int {
		lo := (k % windows) * probeBatch
		return fn(lo, min(lo+probeBatch, n))
	}
}

// probeSet is what a traced run probes apart from the black box. A probe runs
// only on the workloads the contract lists its metric for (metrics.go), so a
// workload fills in only what those probes need: every one has a rig, hw-steady
// an obs pipeline, ctl-churn a replicated state and its placer.
type probeSet struct {
	rig    *rig
	dp     *deltaProbe
	obs    *obsProbe
	pl     *placer
	from   int           // first epoch of pl the placement probes may run
	rng    *rand.Rand    // picks the VIPs the sparse placement epochs drift
	budget time.Duration // per probe
}

// placementEpochs is how many of the generator's epochs the placement probes
// walk; the sparseEpochs at the end of the trace follow.
const placementEpochs = 12

// run times the layer probes this workload is listed for. A reference-kernel
// run between probes gives bench.ref_ms, so a reader can tell a slow probe
// from a slow machine.
func (ps *probeSet) run(r *report) error {
	var cal calibrator
	g, n := ps.rig, len(ps.rig.pkts)
	// probe times one layer function and reports the median per operation in
	// the unit the metric's name carries.
	probe := func(name, unit string, prep func(k int), batch func(k int) int) {
		if !r.wants(name) {
			return
		}
		cal.tick()
		xs := timeSpans(name, ps.budget, prep, batch)
		per := median(xs)
		if unit == "us" {
			per /= 1e3
		}
		r.set(name, per, unit, len(xs))
	}
	ns := func(name string, batch func(k int) int) { probe(name, "ns", nil, batch) }
	us := func(name string, batch func(k int) int) { probe(name, "us", nil, batch) }
	ns("packet.extract_ns", ranged(n, g.probeExtract))
	ns("packet.encap_ns", ranged(n, g.probeEncap))
	ns("packet.decap_ns", ranged(n, g.probeDecap))
	ns("ecmp.hash_ns", ranged(n, g.probeHash))
	ns("bgp.pick_ns", ranged(n, g.probePick))
	ns("hmux.process_ns", ranged(n, g.probeHMux))
	ns("nmux.hit_ns", ranged(n, g.probeNMuxHit))
	ns("nmux.miss_ns", ranged(n, g.probeNMuxMiss))
	ns("smux.stateful_ns", ranged(n, g.probeSMux(0)))
	ns("smux.stateless_ns", ranged(n, g.probeSMux(1)))
	ns("smux.hybrid_ns", ranged(n, g.probeSMux(2)))
	ns("steer.lookup_ns", ranged(n, g.probeSteerLookup))
	ns("hostagent.receive_ns", ranged(n, g.probeReceive))
	ns("wire.frame_ns", ranged(n, g.probeFrame))
	// Building never-seen flows happens between spans, not inside them.
	var fresh [][]byte
	probe("smux.newflow_ns", "ns",
		func(int) { fresh = g.newFlows(probeBatch) },
		func(int) int { return g.probeSMuxNewFlow(fresh) })
	r.set("smux.conn_bytes_per_flow", g.connBytesPerFlow(), "B", 1)

	us("hmux.addvip_us", g.probeHMuxAddVIP)
	us("smux.updatevip_us", g.probeSMuxUpdateVIP)
	us("steer.update_us", g.probeSteerUpdate)

	if r.wants("wire.send_ns") || r.wants("wire.control_rtt_us") {
		wp, err := newWireProbe()
		if err != nil {
			return err
		}
		defer wp.close()
		burst := g.pkts[:min(256, n)]
		ns("wire.send_ns", func(int) int {
			ops := wp.probeSend(burst)
			wp.probeSendRecv(nil) // let the receiver drain before the next burst
			return ops
		})
		ns("wire.recv_ns", func(int) int { return wp.probeSendRecv(burst) })
		us("wire.control_rtt_us", func(int) int { return wp.probeControlRTT() })
	}

	if ps.dp != nil {
		us("delta.diff_us", func(int) int { return ps.dp.probeDiff() })
		us("delta.encode_us", func(int) int { return ps.dp.probeEncode() })
		us("delta.decode_us", func(int) int { return ps.dp.probeDecode() })
		var st *deltaState
		probe("delta.apply_us", "us",
			func(int) { st = ps.dp.prepareApply() },
			func(int) int { return ps.dp.probeApply(st) })
		r.set("delta.bytes_per_epoch", ps.dp.bytesPerEpoch(), "B", 1)
	}
	if ps.obs != nil {
		us("obs.tick_us", func(int) int { return ps.obs.probeTick() })
	}
	if ps.pl != nil {
		if err := ps.placement(r, &cal); err != nil {
			return err
		}
	}
	r.set("bench.ref_ms", cal.refMedianNS()/1e6, "ms", len(cal.ref))
	return nil
}

// placement walks the placer through placementEpochs of the generator's
// trace, every VIP dirty. For each epoch the engine is timed alone
// (assign.ComputeDelta, not applied) and then the whole incremental cycle
// (RunEpochDelta); the difference is what applying the migrations to the
// cluster costs. Every fourth epoch instead times the from-scratch engine
// (assign.compute_ns_per_vip) and the from-scratch cycle (RunEpoch) — the
// recovery path an optimisation of sparse epochs must not tax. Then the
// sparse epochs at the end of the trace price the incremental engine where it
// pays off, 1 % of the VIPs dirty (assign.delta_ns_per_vip): the two numbers
// are the two points of the repository's BENCH_delta.json.
func (ps *probeSet) placement(r *report, cal *calibrator) error {
	p := ps.pl
	vips := float64(p.numVIPs())
	var engine, scratch, applyMS, fullMS []float64
	var moved int
	epochs := 0
	for e := ps.from; e < min(p.numEpochs()-sparseEpochs, ps.from+placementEpochs); e++ {
		cal.tick()
		var err error
		if e%4 == 0 {
			var full time.Duration
			spans.record("assign.compute", 0, e, func() int { full, err = p.probeAssignCompute(e); return p.numVIPs() })
			if err != nil {
				return err
			}
			scratch = append(scratch, float64(full.Nanoseconds())/vips)
			var st epochStats
			spans.record("controller.full_epoch", 0, e, func() int { full, st, err = p.runEpoch(e); return 1 })
			if err != nil {
				return err
			}
			fullMS = append(fullMS, float64(full.Nanoseconds())/1e6)
			moved += st.moved
		} else {
			var eng, el time.Duration
			spans.record("assign.delta", 0, e, func() int { eng, err = p.probeAssignDelta(e); return p.numVIPs() })
			if err != nil {
				return err
			}
			var st epochStats
			spans.record("controller.epoch_delta", 0, e, func() int { el, st, err = p.runEpochDelta(e); return 1 })
			if err != nil {
				return err
			}
			applyMS = append(applyMS, float64((el-eng).Nanoseconds())/1e6)
			moved += st.moved
		}
		epochs++
	}
	dirtyMax := 0.0
	for e := p.numEpochs() - sparseEpochs; e < p.numEpochs(); e++ {
		cal.tick()
		p.sparsify(e, ps.rng)
		dirtyMax = max(dirtyMax, p.dirtyShare(e))
		var eng time.Duration
		var err error
		spans.record("assign.delta_sparse", 0, e, func() int { eng, err = p.probeAssignDelta(e); return p.numVIPs() })
		if err == nil {
			_, _, err = p.runEpochDelta(e) // the next sparse epoch starts from this one
		}
		if err != nil {
			return err
		}
		engine = append(engine, float64(eng.Nanoseconds())/vips)
	}
	r.assert(dirtyMax > 0 && dirtyMax <= 0.01, "%s: the sparse placement epochs changed up to %.4f of the VIPs; they are meant to change at most 1 %%", r.Workload, dirtyMax)
	r.set("assign.delta_ns_per_vip", median(engine), "ns", len(engine))
	r.set("assign.compute_ns_per_vip", median(scratch), "ns", len(scratch))
	r.set("controller.apply_ms", median(applyMS), "ms", len(applyMS))
	r.set("controller.full_epoch_ms", median(fullMS), "ms", len(fullMS))
	r.set("assign.moved_per_epoch", float64(moved)/float64(max(epochs, 1)), "count", epochs)
	return nil
}

// ledger is the outside-in cost ledger of core.Deliver. The parent span is
// the black-box call on the rig's packets at one worker; the child spans
// replay the same packets stage by stage through the rig's separately built
// layers — all tuples extracted, then all hashed, … — with each packet going
// through the mux its VIP's tier would give it in the black box. What the
// children do not cover is core's own: the hop slice, the String() calls, the
// nil out-buffers, the result array. Rungs are ns per delivered packet, so
// they add up: core.residual_ns = core.deliver_ns − Σ ledger.*.
func ledger(p *inproc, g *rig, nicTier bool, budget time.Duration, r *report) {
	n := len(g.pkts)
	var parent, serial, batch2 []float64
	var rungs []map[string]float64 // per ledger batch: rung → ns per delivered packet
	var allocs costMeter
	end := time.Now().Add(budget)
	for k := 0; k < 3 || time.Now().Before(end); k++ {
		var el time.Duration
		allocs.start()
		id, _ := spans.record("core.deliver", 0, k, func() int { el = p.deliverBatch(g.pkts, 1); return n })
		allocs.stop()
		parent = append(parent, float64(el.Nanoseconds())/float64(n))
		rung := map[string]float64{}
		child := func(name string, lo, hi int, fn func(lo, hi int) int) {
			if hi > lo {
				_, d := spans.record(name, id, k, func() int { return fn(lo, hi) })
				rung[name] += float64(d.Nanoseconds()) / float64(n)
			}
		}
		child("ledger.extract_ns", 0, n, g.probeExtract)
		child("ledger.hash_ns", 0, n, g.probeHash)
		child("ledger.pick_ns", 0, n, g.probePick)
		for _, c := range g.classes {
			switch {
			case c.tier == "hmux":
				child("ledger.hmux_ns", c.lo, c.hi, g.probeHMux)
			case c.tier == "nmux":
				child("ledger.nmux_ns", c.lo, c.hi, g.probeNMuxHit)
			default:
				if nicTier {
					child("ledger.nmux_ns", c.lo, c.hi, g.probeNMuxMiss)
				}
				child("ledger.smux_ns", c.lo, c.hi, g.probeSMux(c.mode))
			}
		}
		child("ledger.receive_ns", 0, n, g.probeReceive)
		rungs = append(rungs, rung)

		// The batch pool's price: the same packets at two workers, charged
		// for both, against a plain loop over Deliver.
		_, d := spans.record("core.deliver_serial", 0, k, func() int { return p.deliverSerial(g.pkts) })
		serial = append(serial, float64(d.Nanoseconds())/float64(n))
		el = p.deliverBatch(g.pkts, inprocWorkers)
		batch2 = append(batch2, float64(el.Nanoseconds())*inprocWorkers/float64(n))
	}
	deliver := median(parent)
	children := 0.0
	for _, name := range []string{"ledger.extract_ns", "ledger.hash_ns", "ledger.pick_ns", "ledger.hmux_ns", "ledger.nmux_ns", "ledger.smux_ns", "ledger.receive_ns"} {
		xs := make([]float64, len(rungs))
		for i, rung := range rungs {
			xs[i] = rung[name]
		}
		m := median(xs)
		children += m
		r.diag(name, m, "ns", len(xs))
	}
	r.set("core.deliver_ns", deliver, "ns", len(parent))
	r.set("core.residual_ns", deliver-children, "ns", len(parent))
	// Deliver does everything the children do and more, so a negative
	// residual means the replay prices some layer above what it costs inside
	// the black box: the ledger is then wrong, not the system fast.
	r.assert(deliver >= children, "%s: the ledger's rungs add up to %.0f ns per packet, more than the %.0f ns of core.Deliver itself", r.Workload, children, deliver)
	r.set("core.batch_overhead_ns", median(batch2)-median(serial), "ns", len(serial))
	r.set("core.allocs_per_pkt", float64(allocs.mallocs)/float64(len(parent)*n), "count", len(parent)*n)
}
