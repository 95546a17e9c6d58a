package main

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"
)

// inprocWL is the harness behind hw-steady and sw-churn: a closed loop of
// fixed-size slices through core.DeliverBatch at two workers (= nproc), with
// the reference kernel between slices.
type inprocWL struct {
	name     string
	spec     inprocSpec
	flows    int     // established working set, one packet each
	slice    int     // packets per measured slice
	payload  int     // TCP payload bytes on established segments
	synEvery int     // every synEvery-th packet is a 40 B SYN of a never-seen flow; 0 = none
	churn    bool    // remove and restore one backend per mode inside every slice
	popSkew  float64 // Zipf exponent of VIP popularity
	latBatch int     // packets per serial latency sample

	p        *inproc
	est      [][]byte // the established flows' packets
	flowDIP  []uint32 // the DIP each flow reached last
	flowSeen []int32  // churnStep when the flow was last delivered
	// removedAt is the churnStep after which a (VIP index, DIP) pair was last
	// removed: a flow last seen before that lost its connection to the
	// removal, which is not a consistency violation.
	removedAt map[[2]uint32]int32
	order     []int32 // seed-shuffled flow order the slices cycle through
	cursor    int
	synSeq    uint32
	backends  [][]uint32 // current backend set per VIP index
	vipIdx    map[uint32]int32

	slicePkts [][]byte
	sliceFlow []int32 // flow index per slice packet, -1 for a fresh SYN
	churnStep int
	removed   [][2]uint32 // (vip index, dip) pairs removed and not yet restored
	traced    bool        // record a span around every black-box call
}

const (
	inprocWorkers = 2   // = nproc on the 2-vCPU box the bounds were set on
	latChunk      = 500 // serial latency samples between two throughput slices
)

func newHWSteady(toy bool) workload {
	w := &inprocWL{
		name:  "hw-steady",
		spec:  inprocSpec{vips: 64, dipsPerVIP: 8, hmuxFrac: 1},
		flows: 65536, slice: 65536, payload: 0, popSkew: 1.2, latBatch: 64,
	}
	if toy {
		w.spec.vips, w.flows, w.slice = 8, 2048, 2048
	}
	return w
}

func newSWChurn(toy bool) workload {
	w := &inprocWL{
		name:  "sw-churn",
		spec:  inprocSpec{vips: 48, dipsPerVIP: 8, nmuxTable: 4096, nmuxFrac: 0.25, mixedModes: true},
		flows: 32768, slice: 65536, payload: 472, synEvery: 8, churn: true, popSkew: 1.2, latBatch: 64,
	}
	if toy {
		w.spec.vips, w.flows, w.slice = 12, 2048, 4096
	}
	return w
}

func (w *inprocWL) setup(seed int64) error {
	p, err := newInproc(w.spec)
	if err != nil {
		return err
	}
	w.p = p
	rng := rand.New(rand.NewSource(seed))
	nv := len(p.vips)
	w.vipIdx = make(map[uint32]int32, nv)
	w.backends = make([][]uint32, nv)
	for i, v := range p.vips {
		w.vipIdx[v] = int32(i)
		w.backends[i] = p.backends(v)
	}
	// VIP popularity: Zipf over a seed-chosen ranking of the VIPs.
	rank := rng.Perm(nv)
	z := rand.NewZipf(rng, w.popSkew, 1, uint64(nv-1))
	payload := make([]byte, w.payload)
	rng.Read(payload)
	w.est = make([][]byte, w.flows)
	srcBase := addr4(30, 0, 0, 0) + uint32(rng.Intn(1<<20))<<2
	for f := range w.est {
		vi := rank[z.Uint64()]
		w.est[f] = buildTCP(srcBase+uint32(f), uint16(1024+rng.Intn(60000)), p.vips[vi], flagACK, payload)
	}
	w.order = make([]int32, w.flows)
	for i, f := range rng.Perm(w.flows) {
		w.order[i] = int32(f)
	}
	// Warm-up: every established flow is delivered once, which fills the
	// connection and NIC flow tables and records the DIP each flow is pinned
	// to — the reference for the per-connection-consistency oracle.
	w.flowDIP = make([]uint32, w.flows)
	w.flowSeen = make([]int32, w.flows)
	w.removedAt = map[[2]uint32]int32{}
	var firstErr error
	w.p.deliverBatch(w.est, inprocWorkers)
	w.p.visitLast(func(i int, d delivered, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		w.flowDIP[i] = d.dip
	})
	w.slicePkts = make([][]byte, w.slice)
	w.sliceFlow = make([]int32, w.slice)
	return firstErr
}

func (w *inprocWL) close() {}

// nextSlice fills slicePkts with the next slice's packets (untimed).
func (w *inprocWL) nextSlice(n int, withSYN bool) ([][]byte, []int32) {
	pkts, flows := w.slicePkts[:n], w.sliceFlow[:n]
	for i := range pkts {
		if withSYN && w.synEvery > 0 && i%w.synEvery == w.synEvery-1 {
			w.synSeq++
			vi := int(w.synSeq) % len(w.p.vips)
			pkts[i] = buildTCP(addr4(40, 0, 0, 0)+w.synSeq, uint16(1024+w.synSeq%60000), w.p.vips[vi], flagSYN, nil)
			flows[i] = -1
			continue
		}
		f := w.order[w.cursor]
		w.cursor = (w.cursor + 1) % len(w.order)
		pkts[i], flows[i] = w.est[f], f
	}
	return pkts, flows
}

// churnRemove removes one backend of one VIP per consistency mode through the
// controller's DIP API; churnRestore puts them back. The victims rotate with
// the slice count, so the schedule is a function of packets sent, not time.
func (w *inprocWL) churnRemove(r *report) {
	per := len(w.p.vips) / 3
	for mode := 0; mode < 3; mode++ {
		vi := mode + 3*(w.churnStep%per)
		dip := w.backends[vi][0]
		if err := w.p.removeDIP(w.p.vips[vi], dip); err != nil {
			r.violate("RemoveDIP %s/%s: %v", addrString(w.p.vips[vi]), addrString(dip), err)
			continue
		}
		w.backends[vi] = w.backends[vi][1:]
		w.removed = append(w.removed, [2]uint32{uint32(vi), dip})
		w.removedAt[[2]uint32{uint32(vi), dip}] = int32(w.churnStep) + 1
	}
	w.churnStep++
}

func (w *inprocWL) churnRestore(r *report) {
	for _, rm := range w.removed {
		vi, dip := int(rm[0]), rm[1]
		if err := w.p.addDIP(w.p.vips[vi], dip); err != nil {
			r.violate("AddDIP %s/%s: %v", addrString(w.p.vips[vi]), addrString(dip), err)
			continue
		}
		w.backends[vi] = append(w.backends[vi], dip)
	}
	w.removed = w.removed[:0]
}

// sliceStats accumulates the oracle's verdicts over a run.
type sliceStats struct {
	attempted, failed   int64
	tracked, broken     int64
	brokenBy, trackedBy [4]int64 // by pccClass
}

// check is the oracle for one delivered batch: no delivery error, the DIP is
// in the VIP's configured backend set, a tracked flow whose DIP is still
// configured keeps it, and (sampled) the delivered bytes are the client's
// packet with only the destination rewritten.
func (w *inprocWL) check(pkts [][]byte, flows []int32, st *sliceStats, r *report) {
	w.p.visitLast(func(i int, d delivered, err error) {
		st.attempted++
		if err != nil {
			st.failed++
			r.violate("%s: delivery failed: %v", w.name, err)
			return
		}
		vi, ok := w.vipIdx[d.vip]
		if !ok || !contains(w.backends[vi], d.dip) {
			st.failed++
			r.violate("%s: VIP %s delivered to %s, not one of its backends", w.name, addrString(d.vip), addrString(d.dip))
			return
		}
		if i%64 == 0 {
			if err := checkDelivered(pkts[i], d); err != nil {
				r.violate("%s: %v", w.name, err)
			}
		}
		f := flows[i]
		if f < 0 {
			return
		}
		class := w.pccClass(int(vi))
		st.tracked++
		st.trackedBy[class]++
		if was := w.flowDIP[f]; d.dip != was {
			if contains(w.backends[vi], was) && w.removedAt[[2]uint32{uint32(vi), was}] <= w.flowSeen[f] {
				st.broken++
				st.brokenBy[class]++
			}
			w.flowDIP[f] = d.dip
		}
		w.flowSeen[f] = int32(w.churnStep)
	})
}

// pccClass groups tracked flows for the consistency oracle: by the VIP's
// consistency mode (0..2) when the SMux alone serves it, 3 when a NIC table
// fronts it — a full NIC table falls back to stateless resolution whatever
// the VIP's mode, so those flows are reported apart.
func (w *inprocWL) pccClass(vi int) int {
	if float64(vi) < w.spec.nmuxFrac*float64(w.spec.vips) {
		return 3
	}
	return vi % 3
}

func contains(xs []uint32, x uint32) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// runSlice sends one slice and returns the time spent inside the system:
// DeliverBatch calls plus, on a churn workload, the DIP operations between
// them. The slice is four quarter-batches so a removal and its restore both
// fall inside every slice and all slices are alike.
func (w *inprocWL) runSlice(st *sliceStats, r *report, cost *costMeter) time.Duration {
	pkts, flows := w.nextSlice(w.slice, true)
	q := len(pkts) / 4
	var el time.Duration
	for part := 0; part < 4; part++ {
		lo, hi := part*q, (part+1)*q
		if part == 3 {
			hi = len(pkts)
		}
		cost.start()
		if w.churn && part == 0 {
			t0 := time.Now()
			w.churnRemove(r)
			el += time.Since(t0)
		}
		if w.churn && part == 2 {
			t0 := time.Now()
			w.churnRestore(r)
			el += time.Since(t0)
		}
		if w.traced {
			spans.record("blackbox.deliver_batch", 0, w.churnStep, func() int {
				el += w.p.deliverBatch(pkts[lo:hi], inprocWorkers)
				return hi - lo
			})
		} else {
			el += w.p.deliverBatch(pkts[lo:hi], inprocWorkers)
		}
		cost.stop()
		w.check(pkts[lo:hi], flows[lo:hi], st, r)
	}
	return el
}

func (w *inprocWL) measure(d time.Duration, r *report) {
	var (
		st     sliceStats
		cal    calibrator
		cost   costMeter
		perPkt []float64
		pkts   int64
	)
	// Throughput slices and serial-latency chunks alternate for the whole
	// window with one kernel run between any two, so both metrics sample the
	// same stretch of machine time and share one calibration.
	//
	// A latency chunk is latChunk calls of latBatch packets through one
	// worker, one sample per call: the time one packet spends in Deliver when
	// nothing else runs — the collector included, which on two hyperthreads
	// slows the serial path by half while it marks. What collection costs is
	// in ops_per_s and cpu_us_per_op.
	var lat []float64
	cal.tick()
	for end := time.Now().Add(d); time.Now().Before(end); {
		el := w.runSlice(&st, r, &cost)
		perPkt = append(perPkt, float64(el.Nanoseconds())/float64(w.slice))
		pkts += int64(w.slice)
		cal.tick()

		// Quiesce the collector: finish any cycle the slice left running,
		// sweep, and hold the next one off until the chunk is done.
		gc := debug.SetGCPercent(-1)
		runtime.GC()
		for k := 0; k < latChunk; k++ {
			pk, fl := w.nextSlice(w.latBatch, false)
			el := w.p.deliverBatch(pk, 1)
			lat = append(lat, float64(el.Nanoseconds())/float64(len(pk))/1e3)
			w.check(pk, fl, &st, r)
		}
		debug.SetGCPercent(gc)
		cal.tick()
	}
	raw := median(perPkt)
	r.setCal("ops_per_s", 1e9/cal.scale(raw), 1e9/raw, "1/s", len(perPkt))
	cost.report(r, &cal, float64(pkts), len(perPkt))
	// Whole chunks come out fast or slow (1.2 or 1.9 µs on hw-steady)
	// depending on what shares the core while they run, and the share of slow
	// chunks differs from run to run, so a percentile over all samples jumps
	// between the two modes. Each chunk's percentile is instead scaled by the
	// kernel run that followed it on the same thread, which closes half of
	// the gap, and the chunks are averaged, which moves smoothly with the mix.
	var p50s, p90s, raw50, raw90 []float64
	for i := 0; i+latChunk <= len(lat); i += latChunk {
		after := cal.ref[2*(i/latChunk)+2]
		c50, c90 := quantile(lat[i:i+latChunk], 0.5), quantile(lat[i:i+latChunk], 0.9)
		raw50, raw90 = append(raw50, c50), append(raw90, c90)
		p50s, p90s = append(p50s, c50*refNS/after), append(p90s, c90*refNS/after)
	}
	r.setCal("latency_p50_us", trimmedMean(p50s), trimmedMean(raw50), "us", len(lat))
	r.setCal("latency_p90_us", trimmedMean(p90s), trimmedMean(raw90), "us", len(lat))
	r.diag("latency_p99_us", quantile(lat, 0.99), "us", len(lat))
	r.diag("bench.ref_ms", cal.refMedianNS()/1e6, "ms", len(cal.ref))

	r.Attempted, r.Failed = st.attempted, st.failed
	w.verdicts(&st, r)
}

// verdicts turns the accumulated oracle counts into diagnostics and the
// validity assertions of this workload.
func (w *inprocWL) verdicts(st *sliceStats, r *report) {
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("pcc_broken_frac", frac(st.broken, st.tracked), "ratio", int(st.tracked))
	r.set("failed_frac", frac(st.failed, st.attempted), "ratio", int(st.attempted))
	if w.spec.mixedModes {
		for m := 0; m < 3; m++ {
			r.diag("pcc_broken_frac."+modeOf(m), frac(st.brokenBy[m], st.trackedBy[m]), "ratio", int(st.trackedBy[m]))
		}
		r.diag("pcc_broken_frac.nic", frac(st.brokenBy[3], st.trackedBy[3]), "ratio", int(st.trackedBy[3]))
		r.assert(st.brokenBy[0] == 0, "%s: %d tracked flows of stateful SMux-served VIPs changed DIP while theirs was still configured", w.name, st.brokenBy[0])
	}
	total := float64(w.p.counter("core.deliver.packets"))
	hm := float64(w.p.counter("core.deliver.tier.hmux")) / total
	nm := float64(w.p.counter("core.deliver.tier.nmux")) / total
	sm := float64(w.p.counter("core.deliver.tier.smux")) / total
	r.set("core.tier_hmux_frac", hm, "ratio", int(total))
	r.set("core.tier_nmux_frac", nm, "ratio", int(total))
	r.set("core.tier_smux_frac", sm, "ratio", int(total))
	if w.spec.hmuxFrac == 1 {
		r.assert(hm >= 0.99, "%s: only %.4f of packets were served by an HMux; the workload must stay in hardware", w.name, hm)
	} else {
		r.assert(hm == 0, "%s: %.4f of packets were served by an HMux; the workload must stay in software", w.name, hm)
		r.assert(nm > 0, "%s: the NIC tier served no packet", w.name)
		r.assert(sm > 0, "%s: the SMux tier served no packet", w.name)
	}
}

// shape describes the workload to the layer probes: its VIPs with the tier
// that serves each in the black box, and a sample of its established flows.
func (w *inprocWL) shape() ([]shapeVIP, [][]byte) {
	vips := make([]shapeVIP, len(w.p.vips))
	for i, v := range w.p.vips {
		sv := shapeVIP{addr: v, dips: w.backends[i], tier: "smux"}
		switch {
		case w.spec.hmuxFrac == 1:
			sv.tier = "hmux"
		case w.pccClass(i) == 3:
			sv.tier = "nmux"
		}
		if w.spec.mixedModes {
			sv.mode = i % 3
		}
		vips[i] = sv
	}
	return vips, w.est[:min(len(w.est), 8*probeBatch)]
}

// trace is the per-layer run: a short black-box stage for the counts and the
// tracing overhead, the Deliver ledger, then the probes of the layers this
// workload's black box works.
func (w *inprocWL) trace(d time.Duration, r *report) {
	var st sliceStats
	var perPkt [2][]float64 // untraced, traced
	k := 0
	for end := time.Now().Add(d / 4); k < 4 || time.Now().Before(end); k++ {
		w.traced = k%2 == 1
		el := w.runSlice(&st, r, nil)
		perPkt[k%2] = append(perPkt[k%2], float64(el.Nanoseconds())/float64(w.slice))
	}
	w.traced = false
	r.Attempted, r.Failed = st.attempted, st.failed
	r.set("bench.trace_overhead_frac", median(perPkt[1])/median(perPkt[0])-1, "ratio", len(perPkt[1]))
	w.verdicts(&st, r)
	w.p.tableCounts(r)

	vips, pkts := w.shape()
	g, err := newRig(vips, pkts)
	if err != nil {
		r.violate("%s: %v", w.name, err)
		return
	}
	ledger(w.p, g, w.spec.nmuxTable > 0, d/8, r)
	ps := &probeSet{rig: g, budget: d / 160}
	if r.wants("obs.tick_us") {
		ps.obs = w.p.obsProbe()
	}
	if err := ps.run(r); err != nil {
		r.violate("%s: probes: %v", w.name, err)
	}
}
