package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// wireFleetWL drives a loopback fleet of duetd nodes started in this
// process: ctl, sw-1 (switch agent), smux-1 (with a NIC table), host-1..4,
// and tap, a UDP socket the benchmark owns and lists as a host agent. Half
// the host VIPs are HMux-served (client → switch → host, one wire hop), half
// smux_only (client → switch → smux → host, two hops), so a delivered packet
// crosses 1.5 hops on average. One tap VIP of each kind lets the benchmark
// read forwarded frames off the wire. The control plane is quiet.
type wireFleetWL struct {
	flows    int // pre-framed 40 B flows over the four host VIPs
	slice    int // packets per throughput slice
	window   int // in-flight cap, as in BenchmarkWireDeliver
	latChunk int // one-in-flight samples between two slices

	f      *fleet
	client *net.UDPConn
	frames [][]byte
	// tap2 and tap1 are framed packets to the two-hop and one-hop tap VIPs
	// with the encapsulation each must arrive in.
	tap2, tap1 []tapProbe
	tapCursor  int
	rbuf       []byte
	sent       int64 // datagrams sent to host VIPs so far
	base       int64 // host deliveries not owed to sent: earlier traffic, minus datagrams given up for lost
}

type tapProbe struct{ framed, want []byte }

const (
	wfSwitchSelf = "172.16.0.1"
	wfSMuxSelf   = "20.0.0.1"
	wfTapSelf    = "100.0.0.9"
	wfTap1VIP    = "10.0.0.5" // HMux-served: one hop
	wfTap2VIP    = "10.0.0.6" // smux_only: two hops
)

var wfHosts = []string{"host-1", "host-2", "host-3", "host-4"}

func newWireFleet(toy bool) workload {
	w := &wireFleetWL{flows: 4096, slice: 32768, window: 512, latChunk: 4000}
	if toy {
		w.flows, w.slice, w.latChunk = 256, 2048, 200
	}
	return w
}

func wireFleetSpec() fleetSpec {
	fs := fleetSpec{
		nodes: []fleetNode{
			{name: "ctl", role: roleController},
			{name: "sw-1", role: roleSwitch, self: wfSwitchSelf},
			{name: "smux-1", role: roleSMux, self: wfSMuxSelf, nmuxTable: 4096},
		},
		tapSelf: wfTapSelf,
		vips: []fleetVIP{
			{addr: wfTap1VIP, backends: []string{wfTapSelf}},
			{addr: wfTap2VIP, backends: []string{wfTapSelf}, smuxOnly: true},
		},
	}
	for i, h := range wfHosts {
		self := fmt.Sprintf("100.0.0.%d", i+1)
		fs.nodes = append(fs.nodes, fleetNode{name: h, role: roleHost, self: self})
		// One host node per VIP: a host agent binds a DIP to a single VIP.
		// host-1/2 are HMux-served, host-3/4 smux_only, host-4 also on the NIC.
		fs.vips = append(fs.vips, fleetVIP{
			addr: fmt.Sprintf("10.0.0.%d", i+1), backends: []string{self},
			smuxOnly: i >= 2, nic: i == 3,
		})
	}
	return fs
}

func (w *wireFleetWL) setup(seed int64) error {
	f, err := startFleet(wireFleetSpec())
	if err != nil {
		return err
	}
	w.f = f
	converged := waitFor(10*time.Second, func() bool {
		if f.gauge("sw-1", "wire.vips") < 3 || f.gauge("smux-1", "wire.vips") < 6 {
			return false
		}
		for _, h := range wfHosts {
			if f.gauge(h, "wire.dips") < 1 {
				return false
			}
		}
		return true
	})
	if !converged {
		return fmt.Errorf("fleet bootstrap did not converge within 10 s")
	}
	ua, err := net.ResolveUDPAddr("udp", f.dataAddr("sw-1"))
	if err != nil {
		return err
	}
	if w.client, err = net.DialUDP("udp", nil, ua); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	srcBase := addr4(30, 0, 0, 0) + uint32(rng.Intn(1<<20))<<2
	w.frames = make([][]byte, w.flows)
	for i := range w.frames {
		vip := parseAddr(fmt.Sprintf("10.0.0.%d", 1+rng.Intn(len(wfHosts))))
		w.frames[i] = frame(buildTCP(srcBase+uint32(i), uint16(1024+rng.Intn(60000)), vip, flagSYN, nil))
	}
	mkTap := func(vip, outerSrc string) ([]tapProbe, error) {
		ps := make([]tapProbe, 256)
		for i := range ps {
			pkt := buildTCP(srcBase+uint32(1<<22+i), uint16(1024+rng.Intn(60000)), parseAddr(vip), flagSYN, nil)
			want, err := encapsulate(parseAddr(outerSrc), parseAddr(wfTapSelf), pkt)
			if err != nil {
				return nil, err
			}
			ps[i] = tapProbe{framed: frame(pkt), want: want}
		}
		return ps, nil
	}
	if w.tap2, err = mkTap(wfTap2VIP, wfSMuxSelf); err != nil {
		return err
	}
	if w.tap1, err = mkTap(wfTap1VIP, wfSwitchSelf); err != nil {
		return err
	}
	w.rbuf = make([]byte, 4096)
	// Warm-up: connected send sockets, conn-table and NIC entries for every
	// flow, and the tap paths.
	w.base = w.delivered()
	if _, lost := w.sendSlice(w.flows); lost != 0 {
		return fmt.Errorf("warm-up lost %d of %d datagrams", lost, w.flows)
	}
	for i := 0; i < 64; i++ {
		if _, err := w.tapRTT(w.tap2); err != nil {
			return err
		}
		if _, err := w.tapRTT(w.tap1); err != nil {
			return err
		}
	}
	return nil
}

func (w *wireFleetWL) close() {
	if w.client != nil {
		w.client.Close()
	}
	if w.f != nil {
		w.f.close()
	}
}

// delivered sums wire.delivered over the host nodes.
func (w *wireFleetWL) delivered() int64 {
	var n uint64
	for _, h := range wfHosts {
		n += w.f.counter(h, "wire.delivered")
	}
	return int64(n)
}

// sendSlice sends n pre-framed datagrams with at most window in flight, waits
// up to 200 ms for the stragglers, and returns the time from the first send
// to the last delivery seen and how many datagrams never arrived.
func (w *wireFleetWL) sendSlice(n int) (time.Duration, int) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if i%32 == 0 {
			// Flow control: polling the counter per small batch keeps the
			// in-flight window under the dataplane backlog, so overrun drops
			// stay rare. The wait is bounded; a dropped datagram never
			// arrives and is counted as failed at the end of the slice.
			for k := 0; k < 50 && w.sent-(w.delivered()-w.base) > int64(w.window); k++ {
				time.Sleep(100 * time.Microsecond)
			}
		}
		if _, err := w.client.Write(w.frames[int(w.sent%int64(len(w.frames)))]); err == nil {
			w.sent++
		}
	}
	waitFor(200*time.Millisecond, func() bool { return w.delivered()-w.base >= w.sent })
	el := time.Since(t0)
	lost := int(w.sent - (w.delivered() - w.base))
	if lost < 0 {
		lost = 0 // a datagram given up for lost earlier arrived after all
	}
	w.base -= int64(lost) // lost datagrams must not be waited for again
	return el, lost
}

// tapRTT sends one probe and waits for the tap to receive it: the time from
// client send to tap receive with a single packet in flight. The received
// frame must be byte-identical to the reference encapsulation.
func (w *wireFleetWL) tapRTT(probes []tapProbe) (time.Duration, error) {
	p := &probes[w.tapCursor%len(probes)]
	w.tapCursor++
	t0 := time.Now()
	if _, err := w.client.Write(p.framed); err != nil {
		return 0, err
	}
	_ = w.f.tap.SetReadDeadline(t0.Add(200 * time.Millisecond))
	n, _, err := w.f.tap.ReadFromUDP(w.rbuf)
	el := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("tap: %w", err)
	}
	got, err := unframe(w.rbuf[:n])
	if err != nil {
		return 0, fmt.Errorf("tap frame: %w", err)
	}
	if !bytes.Equal(got, p.want) {
		return 0, fmt.Errorf("tap: wire encapsulation differs from packet.Encapsulate:\n got %x\nwant %x", got, p.want)
	}
	return el, nil
}

func (w *wireFleetWL) measure(d time.Duration, r *report) {
	var (
		cal       calibrator
		cost      costMeter
		perPkt    []float64
		lat       []float64
		delivered int64
	)
	cal.tick()
	for end := time.Now().Add(d); time.Now().Before(end); {
		cost.start()
		el, lost := w.sendSlice(w.slice)
		cost.stop()
		got := w.slice - lost
		r.Attempted += int64(w.slice)
		r.Failed += int64(lost)
		if got > 0 {
			perPkt = append(perPkt, float64(el.Nanoseconds())/float64(got))
			delivered += int64(got)
		}
		cal.tick()

		for k := 0; k < w.latChunk; k++ {
			r.Attempted++
			el, err := w.tapRTT(w.tap2)
			if err != nil {
				r.Failed++
				r.violate("wire-fleet: %v", err)
				continue
			}
			lat = append(lat, float64(el.Nanoseconds())/1e3)
		}
		cal.tick()
	}
	raw := median(perPkt)
	r.setCal("ops_per_s", 1e9/cal.scale(raw), 1e9/raw, "1/s", len(perPkt))
	cost.report(r, &cal, float64(delivered), len(perPkt))
	// The path latency is not scaled by the kernel: it is wake-ups and
	// syscalls, which the kernel's memory-bound drift does not track (run to
	// run the raw median spread 2.4 %, the scaled one 4.7–6.2 %).
	r.set("latency_p50_us", quantile(lat, 0.5), "us", len(lat))
	r.set("latency_p90_us", quantile(lat, 0.9), "us", len(lat))
	r.set("latency_p99_us", quantile(lat, 0.99), "us", len(lat))
	r.diag("bench.ref_ms", cal.refMedianNS()/1e6, "ms", len(cal.ref))
	r.set("failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio", int(r.Attempted))
	w.verdicts(r)
}

// verdicts reports the fleet's drop counters and checks the control plane
// stayed quiet and delta-only.
func (w *wireFleetWL) verdicts(r *report) {
	var drops, backlog, tx uint64
	for _, n := range w.f.names {
		drops += w.f.counter(n, "wire.drops.total")
		backlog += w.f.counter(n, "wire.drops.backlog_full")
	}
	for _, n := range []string{"sw-1", "smux-1"} {
		tx += w.f.counter(n, "wire.tx.frames")
	}
	r.set("wire.drops_total", float64(drops), "count", 1)
	r.set("wire.drops_backlog", float64(backlog), "count", 1)
	if got := w.delivered() + int64(w.tapCursor); got > 0 {
		r.set("wire.hops_per_pkt", float64(tx)/float64(got), "count", int(got))
	}
	full := w.f.counter("ctl", "wire.controller.full_pushes")
	var rejected uint64
	for _, n := range w.f.names {
		rejected += w.f.counter(n, "wire.delta.rejected")
	}
	r.set("wire.full_pushes", float64(full), "count", 1)
	r.set("wire.delta_rejected", float64(rejected), "count", 1)
	r.assert(full == 0, "wire-fleet: the controller made %d full pushes; bootstrap and steady state must be deltas only", full)
	r.assert(rejected == 0, "wire-fleet: nodes rejected %d delta pushes", rejected)
}

// openLoop sends to the two-hop tap VIP at pps packets a second in 1 ms
// bursts for about d, whatever comes back, and times every packet from when
// it was due, so a stalled fleet is charged for the packets queued behind the
// stall. It reports the latency percentiles, how late the generator ran at
// worst, and the loss. Diagnostics only: at 20 k pkts/s on two shared vCPUs
// the tail is the hypervisor's.
func (w *wireFleetWL) openLoop(d time.Duration, pps int, r *report) {
	perBurst := pps / 1000
	bursts := int(d / time.Millisecond)
	n := bursts * perBurst
	base := addr4(60, 0, 0, 0)
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = frame(buildTCP(base+uint32(i), 4000, parseAddr(wfTap2VIP), flagSYN, nil))
	}
	due := make([]time.Time, n)
	got := make([]time.Time, n)
	done := make(chan struct{})
	_ = w.f.tap.SetReadDeadline(time.Now().Add(d + 2*time.Second))
	go func() { // the tap reader: the second and last generator goroutine
		defer close(done)
		buf := make([]byte, 4096)
		for {
			m, _, err := w.f.tap.ReadFromUDP(buf)
			if err != nil {
				return // the deadline moved up below ended the stage
			}
			now := time.Now()
			// Outer IPv4 header, then the inner packet: its source address
			// carries the sequence number.
			if inner, err := unframe(buf[:m]); err == nil && len(inner) >= 36 {
				src := uint32(inner[32])<<24 | uint32(inner[33])<<16 | uint32(inner[34])<<8 | uint32(inner[35])
				if seq := int(src - base); seq >= 0 && seq < n {
					got[seq] = now
				}
			}
		}
	}()
	var lateMax time.Duration
	t0 := time.Now()
	for b := 0; b < bursts; b++ {
		at := t0.Add(time.Duration(b) * time.Millisecond)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(at); late > lateMax {
			lateMax = late
		}
		for k := 0; k < perBurst; k++ {
			i := b*perBurst + k
			due[i] = at
			_, _ = w.client.Write(frames[i])
		}
	}
	time.Sleep(200 * time.Millisecond)
	_ = w.f.tap.SetReadDeadline(time.Now())
	<-done
	var lat []float64
	for i := range got {
		if !got[i].IsZero() {
			lat = append(lat, float64(got[i].Sub(due[i]).Nanoseconds())/1e3)
		}
	}
	r.Attempted += int64(n)
	r.Failed += int64(n - len(lat))
	r.diag("wire.lat20k_p50_us", quantile(lat, 0.5), "us", len(lat))
	r.diag("wire.lat20k_p99_us", quantile(lat, 0.99), "us", len(lat))
	r.diag("wire.lat20k_lost_frac", float64(n-len(lat))/float64(n), "ratio", n)
	r.diag("bench.gen_late_max_ms", float64(lateMax.Nanoseconds())/1e6, "ms", bursts)
}

// trace is the per-layer run: traced and untraced slices of the black box
// alternate for the tracing overhead, then the tap paths and the open loop
// (diagnostics), the fleet's counters, and the probes of the wire layer and
// the host agent.
func (w *wireFleetWL) trace(d time.Duration, r *report) {
	var perPkt [2][]float64 // untraced, traced
	k := 0
	for end := time.Now().Add(d / 5); k < 4 || time.Now().Before(end); k++ {
		var el time.Duration
		var lost int
		if k%2 == 1 {
			spans.record("blackbox.send_slice", 0, k, func() int { el, lost = w.sendSlice(w.slice); return w.slice - lost })
		} else {
			el, lost = w.sendSlice(w.slice)
		}
		r.Attempted += int64(w.slice)
		r.Failed += int64(lost)
		if got := w.slice - lost; got > 0 {
			perPkt[k%2] = append(perPkt[k%2], float64(el.Nanoseconds())/float64(got))
		}
	}
	r.set("bench.trace_overhead_frac", median(perPkt[1])/median(perPkt[0])-1, "ratio", len(perPkt[1]))

	var hop1, hop2 []float64
	sample := func(probes []tapProbe, out *[]float64) {
		r.Attempted++
		el, err := w.tapRTT(probes)
		if err != nil {
			r.Failed++
			r.violate("wire-fleet: %v", err)
			return
		}
		*out = append(*out, float64(el.Nanoseconds())/1e3)
	}
	for i := 0; i < w.latChunk; i++ {
		sample(w.tap1, &hop1)
		sample(w.tap2, &hop2)
	}
	r.diag("wire.path1_p50_us", quantile(hop1, 0.5), "us", len(hop1))
	r.diag("wire.path2_p50_us", quantile(hop2, 0.5), "us", len(hop2))
	r.diag("wire.path_p99_us", quantile(hop2, 0.99), "us", len(hop2))
	w.openLoop(d/10, 20000, r)
	w.verdicts(r)
	r.set("failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio", int(r.Attempted))

	// The probes of the layers the fleet's packets cross that are not muxes:
	// framing, the sockets and the host agent's receive, on the fleet's own
	// VIPs and flows.
	var vips []shapeVIP
	for _, v := range wireFleetSpec().vips {
		sv := shapeVIP{addr: parseAddr(v.addr), tier: "hmux"}
		if v.smuxOnly {
			sv.tier = "smux"
		}
		for _, b := range v.backends {
			sv.dips = append(sv.dips, parseAddr(b))
		}
		vips = append(vips, sv)
	}
	pkts := make([][]byte, 0, len(w.frames))
	for _, f := range w.frames {
		if p, err := unframe(f); err == nil {
			pkts = append(pkts, p)
		}
	}
	g, err := newRig(vips, pkts)
	if err != nil {
		r.violate("wire-fleet: %v", err)
		return
	}
	ps := &probeSet{rig: g, budget: d / 160}
	if err := ps.run(r); err != nil {
		r.violate("wire-fleet: probes: %v", err)
	}
}
