package assign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duet/internal/netsim"
	"duet/internal/topology"
	"duet/internal/workload"
)

// evaluateFullSum is evaluate as it was before the early exits: it sums
// every flow vector of the placement, then tests every touched link. It is
// the reference evaluate is held to.
func (a *assigner) evaluateFullSum(v *workload.VIP, rate float64, s topology.SwitchID) (mru float64, feasible bool) {
	if !a.net.SwitchUp(s) {
		return math.Inf(1), false
	}
	nd := v.NumDIPs()
	memU := float64(a.memUsed[s]+nd) / float64(a.opts.MemCapacity)
	if memU > 1 {
		return math.Inf(1), false
	}
	for _, d := range a.dirty {
		a.touched[d] = 0
	}
	a.dirty = a.dirty[:0]
	ok := a.flows(v, rate, s, func(vec netsim.Vec, r float64) bool {
		for _, lf := range vec.Links() {
			if a.touched[lf.Dir] == 0 {
				a.dirty = append(a.dirty, lf.Dir)
			}
			a.touched[lf.Dir] += r * lf.Frac
		}
		return true
	})
	if !ok {
		return math.Inf(1), false
	}
	max := memU
	l2 := memU * memU
	for _, dir := range a.dirty {
		u := (a.loads[dir] + a.touched[dir]) / a.effCap[dir]
		if u > max {
			max = u
		}
		l2 += u * u
	}
	if max > 1 {
		return max, false
	}
	if a.opts.Strategy == BestFit {
		return l2, true
	}
	return max, true
}

// scanFullSum is scan as it was before the probe table: every candidate
// scored by evaluateFullSum.
func (a *assigner) scanFullSum(v *workload.VIP, rate float64) (best topology.SwitchID, bestMRU float64) {
	best, bestMRU = -1, math.Inf(1)
	if a.opts.Strategy == Random {
		if a.randomOrder == nil {
			a.randomOrder = a.rng.Perm(a.net.Topo.NumSwitches())
		}
		for _, si := range a.randomOrder {
			s := topology.SwitchID(si)
			if mru, feasible := a.evaluateFullSum(v, rate, s); feasible {
				return s, mru
			}
		}
		return best, bestMRU
	}
	ties := 0
	for _, s := range a.candidates() {
		mru, feasible := a.evaluateFullSum(v, rate, s)
		if !feasible {
			continue
		}
		switch {
		case mru < bestMRU-1e-12:
			best, bestMRU = s, mru
			ties = 1
		case mru <= bestMRU+1e-12:
			ties++
			if a.rng.Intn(ties) == 0 {
				best = s
			}
		}
	}
	return best, bestMRU
}

// checkEvaluate holds evaluate to the reference for v at rate on every
// switch of the fabric: the same feasibility, and a feasible score equal bit
// for bit. It returns how many switches were feasible and infeasible.
func checkEvaluate(t *testing.T, label string, a *assigner, v *workload.VIP, rate float64) (fit, unfit int) {
	t.Helper()
	a.loadDIPRacks(v)
	for si := 0; si < a.net.Topo.NumSwitches(); si++ {
		s := topology.SwitchID(si)
		wantMRU, wantOK := a.evaluateFullSum(v, rate, s)
		gotMRU, gotOK := a.evaluate(v, rate, s)
		if gotOK != wantOK {
			t.Fatalf("%s: switch %d rate %v: feasible = %v, the full sum says %v (score %v)", label, s, rate, gotOK, wantOK, wantMRU)
		}
		if !wantOK {
			unfit++
			continue
		}
		fit++
		if math.Float64bits(gotMRU) != math.Float64bits(wantMRU) {
			t.Fatalf("%s: switch %d rate %v: score %v, the full sum says %v", label, s, rate, gotMRU, wantMRU)
		}
	}
	return fit, unfit
}

// eachVec calls fn on every flow vector the placement can read on net: the
// unit flow of every routable switch pair and every switch's Internet
// ingress.
func eachVec(net *netsim.Network, fn func(netsim.Vec)) {
	for d := 0; d < net.Topo.NumSwitches(); d++ {
		dst := topology.SwitchID(d)
		if v, err := net.InternetVec(dst); err == nil {
			fn(v)
		}
		for s := 0; s < net.Topo.NumSwitches(); s++ {
			if v, err := net.UnitVec(topology.SwitchID(s), dst); err == nil {
				fn(v)
			}
		}
	}
}

// hinted counts the vectors of net whose hint is not 0, and fails t if any
// hint is not a position in its vector.
func hinted(t *testing.T, net *netsim.Network) int {
	t.Helper()
	n := 0
	eachVec(net, func(v netsim.Vec) {
		if k := v.Tight(); k != 0 {
			if k < 0 || k >= len(v.Links()) {
				t.Fatalf("hint %d in a vector of %d links", k, len(v.Links()))
			}
			n++
		}
	})
	return n
}

// checkProbeTable fails t unless every fresh row of a's probe table reads
// its candidate as the round has it now: its memory use, and the committed
// load, Internet share and capacity of one of the links of its Internet
// vector — or the empty or the unroutable vector's row.
func checkProbeTable(t *testing.T, label string, a *assigner) {
	t.Helper()
	if !a.candsFresh {
		return
	}
	for i, s := range a.cands {
		p := a.probes[i]
		if !p.fresh {
			continue
		}
		if p.mem != a.memUsed[s] {
			t.Fatalf("%s: probe row of switch %d reads memory %d, the switch uses %d", label, s, p.mem, a.memUsed[s])
		}
		inet, err := a.net.InternetVec(s)
		ok := false
		switch {
		case err != nil:
			ok = math.IsInf(p.load, 1) && p.cap == 0
		case len(inet.Links()) == 0:
			ok = p.load == 0 && p.frac == 0 && math.IsInf(p.cap, 1)
		}
		for _, lf := range inet.Links() {
			ok = ok || p.load == a.loads[lf.Dir] && p.frac == lf.Frac && p.cap == a.effCap[lf.Dir]
		}
		if !ok {
			t.Fatalf("%s: probe row of switch %d (%+v) matches no link of its Internet vector at the round's loads", label, s, p)
		}
	}
}

// checkScan holds a's scan of VIP vi at rate to ref's scanFullSum, ref being
// a twin round in the same state: the same pick, the same score bit for bit,
// and the round's RNG drawn the same number of times. It returns the pick.
func checkScan(t *testing.T, label string, a, ref *assigner, vi int, rate float64) topology.SwitchID {
	t.Helper()
	v := &a.work.VIPs[vi]
	a.loadDIPRacks(v)
	ref.loadDIPRacks(v)
	got, gotMRU := a.scan(v, rate)
	checkProbeTable(t, label, a)
	want, wantMRU := ref.scanFullSum(v, rate)
	if got != want || math.Float64bits(gotMRU) != math.Float64bits(wantMRU) {
		t.Fatalf("%s: VIP %d rate %v: scan picked %d (%v), the full sum %d (%v)", label, vi, rate, got, gotMRU, want, wantMRU)
	}
	if x, y := a.rng.Int63(), ref.rng.Int63(); x != y {
		t.Fatalf("%s: VIP %d: the scans left the RNG apart (%d vs %d)", label, vi, x, y)
	}
	return got
}

// checkRound places every VIP of w's epoch 0 on net, with evaluate on one
// round and the full sum on a twin, holding evaluate to the reference on
// every switch, at three rates, for every 7th VIP, and the two scans of
// every VIP to the same pick and the same RNG draws. It fails t if the check
// was vacuous: no feasible evaluation, fewer infeasible than feasible, or no
// scan placed.
func checkRound(t *testing.T, label string, net *netsim.Network, w *workload.Workload, opts Options) {
	t.Helper()
	opts = opts.withDefaults()
	a, order, err := newRound(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := newRound(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var fit, unfit, picked int
	for k, vi := range order {
		v, rate := &w.VIPs[vi], w.Rates[0][vi]
		if k%7 == 0 {
			for _, scale := range []float64{0.25, 1, 1 + 3*rng.Float64()} {
				f, u := checkEvaluate(t, label, a, v, rate*scale)
				fit, unfit = fit+f, unfit+u
			}
		}
		if checkScan(t, label, a, ref, vi, rate) >= 0 {
			picked++
		}
		a.place(vi, Unassigned)
		ref.place(vi, Unassigned)
	}
	// Not vacuous: both answers occur, and most candidates do not fit.
	if fit == 0 || unfit < fit || picked == 0 {
		t.Fatalf("%s: %d feasible, %d infeasible evaluations, %d scans placed", label, fit, unfit, picked)
	}
}

// TestEvaluateMatchesFullSum holds the early-exit evaluate to the full-sum
// reference: over seeded fabric states filled by the placement itself, every
// switch for a sample of VIPs at several rates, under Greedy and BestFit, on
// a fresh Network and again on one that carries the tight-link hints the
// first round learned; then over hint states made on purpose — dropped by a
// failure-state change, forced onto slack links, and moved between scans of
// one candidate set — and over hand-built edges — a link exactly at capacity
// and one ulp over, tables exactly full and one entry over, rate 0, no
// Internet share, an unroutable path, a VIP larger than a table. scan, with
// its probe table, over the same state picks the same switch as the scan
// over the full sum and draws the round's RNG the same number of times.
func TestEvaluateMatchesFullSum(t *testing.T) {
	for _, strat := range []Strategy{Greedy, BestFit} {
		for _, seed := range []int64{1, 2, 3} {
			net, w := smallWorld(t, 300, 1e12, seed)
			if seed == 3 {
				net.FailSwitch(net.Topo.AggID(1, 0))
				net.FailSwitch(net.Topo.CoreID(2))
			}
			opts := DefaultOptions()
			opts.Seed, opts.Strategy, opts.ContinueOnFail = seed, strat, true
			checkRound(t, fmt.Sprintf("strategy %d seed %d", strat, seed), net, w, opts)
			if hinted(t, net) == 0 {
				t.Fatalf("strategy %d seed %d: the round learned no hint", strat, seed)
			}
			checkRound(t, fmt.Sprintf("strategy %d seed %d, learned hints", strat, seed), net, w, opts)
		}
	}

	t.Run("failure-clears-hints", func(t *testing.T) {
		net, w := smallWorld(t, 300, 1e12, 9)
		opts := DefaultOptions()
		opts.ContinueOnFail = true
		checkRound(t, "learning", net, w, opts)
		if hinted(t, net) == 0 {
			t.Fatal("the round learned no hint")
		}
		agg := net.Topo.AggID(2, 1)
		net.FailSwitch(agg)
		if n := hinted(t, net); n != 0 {
			t.Fatalf("%d hints survived FailSwitch", n)
		}
		checkRound(t, "after FailSwitch", net, w, opts)
		net.RecoverSwitch(agg)
		if n := hinted(t, net); n != 0 {
			t.Fatalf("%d hints survived RecoverSwitch", n)
		}
		checkRound(t, "after RecoverSwitch", net, w, opts)
	})

	t.Run("stale-hints", func(t *testing.T) {
		// Half the VIPs placed, then every hint forced onto its vector's
		// least-utilized link: the probes miss, the walks decide.
		net, w := smallWorld(t, 300, 1e12, 10)
		opts := DefaultOptions()
		opts.ContinueOnFail = true
		a, order, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, vi := range order[:150] {
			a.place(vi, Unassigned)
		}
		a.probeRejects, a.walkRejects = 0, 0
		unfit := 0
		for _, vi := range order[150:200] {
			slackHints(a)
			_, u := checkEvaluate(t, "stale hints", a, &w.VIPs[vi], w.Rates[0][vi])
			unfit += u
		}
		if unfit == 0 || a.walkRejects == 0 {
			t.Fatalf("%d infeasible evaluations, %d settled by a walk: the stale hints were never missed", unfit, a.walkRejects)
		}
	})

	t.Run("hints-move-between-scans", func(t *testing.T) {
		// Scans of one candidate set, no commit between them, with every
		// hint forced onto its vector's least-utilized link before every
		// other scan: a table row keeps the hint link it was filled with
		// until an evaluate of its candidate stales it, so rows are read
		// both at a link the hint has left and after a refill at the slack
		// one. Either way scan decides as the full sum does.
		net, w := smallWorld(t, 300, 1e12, 11)
		opts := DefaultOptions()
		opts.ContinueOnFail = true
		a, order, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, vi := range order[:150] {
			a.place(vi, Unassigned)
			ref.place(vi, Unassigned)
		}
		a.probeRejects, a.walkRejects = 0, 0
		picked := 0
		for k, vi := range order[150:250] {
			if k%2 == 1 {
				slackHints(a)
			}
			if checkScan(t, "hints moved", a, ref, vi, w.Rates[0][vi]) >= 0 {
				picked++
			}
			if !a.candsFresh {
				t.Fatal("the candidate set was rebuilt without a commit")
			}
		}
		if picked == 0 || a.probeRejects == 0 || a.walkRejects == 0 {
			t.Fatalf("%d scans placed, %d rejections settled by a probe, %d by a walk: the moved hints were never read", picked, a.probeRejects, a.walkRejects)
		}
	})

	t.Run("at-capacity", func(t *testing.T) {
		for _, strat := range []Strategy{Greedy, BestFit} {
			net, w := smallWorld(t, 100, 2e11, 4)
			opts := DefaultOptions()
			opts.Strategy = strat
			a, order, err := newRound(net, w, 0, opts.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			for _, vi := range order[:20] {
				a.place(vi, Unassigned)
			}
			vi := order[20]
			v, rate := &w.VIPs[vi], w.Rates[0][vi]
			a.loadDIPRacks(v)
			s, _ := a.scanFullSum(v, rate)
			if s < 0 {
				t.Fatal("no switch fits the probe VIP")
			}
			// Each touched link's final sum, exactly as evaluate forms it.
			a.evaluateFullSum(v, rate, s)
			var sums []netsim.LinkFrac
			for _, d := range a.dirty {
				if a.touched[d] != 0 {
					sums = append(sums, netsim.LinkFrac{Dir: d, Frac: a.loads[d] + a.touched[d]})
				}
			}
			if len(sums) == 0 {
				t.Fatal("the probe placement touches no link")
			}
			for _, l := range sums {
				saved := a.effCap[l.Dir]
				a.effCap[l.Dir] = l.Frac
				checkEvaluate(t, "at capacity", a, v, rate)
				if _, ok := a.evaluate(v, rate, s); !ok {
					t.Fatalf("link %d exactly at capacity: switch %d infeasible", l.Dir, s)
				}
				a.effCap[l.Dir] = math.Nextafter(l.Frac, 0)
				checkEvaluate(t, "one ulp over", a, v, rate)
				if _, ok := a.evaluate(v, rate, s); ok {
					t.Fatalf("link %d one ulp over capacity: switch %d feasible", l.Dir, s)
				}
				a.effCap[l.Dir] = saved
			}
		}
	})

	t.Run("memory-at-capacity", func(t *testing.T) {
		// Every switch's table filled to exactly what the probe VIP leaves
		// full, then one entry more: the scan places it on a full table, and
		// then nowhere.
		net, w := smallWorld(t, 100, 2e11, 12)
		opts := DefaultOptions()
		opts.ContinueOnFail = true
		a, order, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, vi := range order[:20] {
			a.place(vi, Unassigned)
			ref.place(vi, Unassigned)
		}
		vi := order[20]
		nd := w.VIPs[vi].NumDIPs()
		for over := 0; over <= 1; over++ {
			for _, r := range []*assigner{a, ref} {
				for s := range r.memUsed {
					r.memUsed[s] = r.opts.MemCapacity - nd + over
				}
				r.candsFresh = false
			}
			got := checkScan(t, fmt.Sprintf("table full %+d", over), a, ref, vi, w.Rates[0][vi])
			if (got >= 0) != (over == 0) {
				t.Fatalf("tables %d over full after the VIP: scan picked %d", over, got)
			}
		}
	})

	t.Run("rate-0-and-no-internet", func(t *testing.T) {
		net, w := smallWorld(t, 200, 1e12, 5)
		opts := DefaultOptions()
		opts.ContinueOnFail = true
		a, order, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, vi := range order[:100] {
			a.place(vi, Unassigned)
		}
		for _, vi := range order[100:120] {
			v := w.VIPs[vi]
			checkEvaluate(t, "rate 0", a, &v, 0)
			v.InternetFrac = 0
			for _, rate := range []float64{0, w.Rates[0][vi], 8 * w.Rates[0][vi]} {
				checkEvaluate(t, "no Internet share", a, &v, rate)
			}
		}
	})

	t.Run("unroutable", func(t *testing.T) {
		net, w := smallWorld(t, 50, 2e11, 6)
		// Container 0's ToRs stay up but lose every Agg: no path reaches them.
		for j := 0; j < net.Topo.Cfg.AggsPerContainer; j++ {
			net.FailSwitch(net.Topo.AggID(0, j))
		}
		a, _, err := newRound(net, w, 0, DefaultOptions().withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		v := workload.VIP{
			DIPRacks:     []int{0, 9},
			SrcRacks:     []workload.RackWeight{{Rack: 10, Weight: 1}},
			InternetFrac: 0.3,
		}
		if net.Topo.Switch(net.Topo.Rack(0)).Container != 0 {
			t.Fatal("rack 0 is not in container 0")
		}
		if fit, _ := checkEvaluate(t, "unroutable", a, &v, 1e9); fit != 0 {
			t.Fatalf("%d switches feasible for a VIP with a DIP nobody can reach", fit)
		}
	})

	t.Run("more-dips-than-table", func(t *testing.T) {
		net, w := smallWorld(t, 50, 2e11, 7)
		opts := DefaultOptions()
		opts.MemCapacity = 4
		a, _, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		v := workload.VIP{DIPRacks: []int{1, 2, 3, 4, 5}, SrcRacks: []workload.RackWeight{{Rack: 6, Weight: 1}}, InternetFrac: 0.3}
		if fit, _ := checkEvaluate(t, "too many DIPs", a, &v, 1e6); fit != 0 {
			t.Fatalf("%d switches feasible for 5 DIPs in a 4-entry table", fit)
		}
	})
}

// slackHints forces every hint of a's network onto its vector's
// least-utilized link under a's loads, where the probes miss.
func slackHints(a *assigner) {
	eachVec(a.net, func(v netsim.Vec) {
		best, bestU := 0, math.Inf(1)
		for k, lf := range v.Links() {
			if u := a.loads[lf.Dir] / a.effCap[lf.Dir]; u < bestU {
				best, bestU = k, u
			}
		}
		v.SetTight(best)
	})
}

// FuzzEvaluateMatchesFullSum holds evaluate, and scan with its probe table,
// to the full-sum references on fuzzed fabric states: a seeded workload, a
// scale on the rates checked, one failed switch (or none) and a strategy.
// The heavier half of the VIPs is placed first, on a round and on its twin,
// so loads and tight-link hints are warm; then every switch is checked for
// the next few VIPs, and scan against scanFullSum on the twin, each VIP
// placed on both after its check, so the next scan reads a table refilled
// after a commit.
func FuzzEvaluateMatchesFullSum(f *testing.F) {
	f.Add(int64(1), 1.0, -1, uint8(Greedy))
	f.Add(int64(2), 0.25, 3, uint8(BestFit))
	f.Add(int64(3), 4.0, 50, uint8(Random))
	f.Add(int64(4), 0.0, 40, uint8(Greedy))
	f.Fuzz(func(t *testing.T, seed int64, scale float64, failed int, strat uint8) {
		if !(scale >= 0) || math.IsInf(scale, 1) {
			t.Skip("rates are finite and not negative")
		}
		net, w := smallWorld(t, 100, 1e12, seed)
		if failed >= 0 && failed < net.Topo.NumSwitches() {
			net.FailSwitch(topology.SwitchID(failed))
		}
		opts := DefaultOptions()
		opts.Seed, opts.Strategy, opts.ContinueOnFail = seed, Strategy(strat%3), true
		a, order, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, vi := range order[:50] {
			a.place(vi, Unassigned)
			ref.place(vi, Unassigned)
		}
		for _, vi := range order[50:60] {
			checkEvaluate(t, "fuzzed", a, &w.VIPs[vi], w.Rates[0][vi]*scale)
			checkScan(t, "fuzzed", a, ref, vi, w.Rates[0][vi]*scale)
			a.place(vi, Unassigned)
			ref.place(vi, Unassigned)
		}
	})
}

// TestProbesSettleRejections: on a saturated fabric, where most candidates
// do not fit, the probes at the tight-link hints settle at least 90 % of the
// infeasible evaluations that reach the link tests, so the walks run for
// few of them. A refactor that drops or breaks the hints fails here, though
// every decision would stay the same.
func TestProbesSettleRejections(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		net, w := smallWorld(t, 300, 1e12, seed)
		opts := DefaultOptions()
		opts.Seed, opts.ContinueOnFail = seed, true
		a, order, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, vi := range order {
			a.place(vi, Unassigned)
		}
		probe, walk := a.probeRejects, a.walkRejects
		if probe+walk < 1000 || a.res.NumAssigned == 0 {
			t.Fatalf("seed %d: %d link-tested rejections and %d VIPs placed; the fabric is not saturated", seed, probe+walk, a.res.NumAssigned)
		}
		if share := float64(probe) / float64(probe+walk); share < 0.9 {
			t.Errorf("seed %d: probes settled %d of %d rejections (%.1f %%), want ≥ 90 %%", seed, probe, probe+walk, 100*share)
		}
		if hinted(t, net) == 0 {
			t.Errorf("seed %d: the round learned no hint; the probes read position 0 only", seed)
		}
	}
}

// TestZeroAllocScan gates the candidate scan on a warmed round: evaluating
// every candidate, and rebuilding the candidate set as after a commit,
// allocate nothing under Greedy, Random and FullScan.
func TestZeroAllocScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Options)
	}{
		{"greedy", func(*Options) {}},
		{"random", func(o *Options) { o.Strategy = Random }},
		{"fullscan", func(o *Options) { o.FullScan = true }},
	} {
		net, w := smallWorld(t, 300, 5e11, 8)
		opts := DefaultOptions()
		opts.ContinueOnFail = true
		tc.set(&opts)
		a, order, err := newRound(net, w, 0, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for _, vi := range order[:150] {
			a.place(vi, Unassigned)
		}
		probes := order[150:170]
		placed := 0
		scanAll := func() {
			for _, vi := range probes {
				v := &w.VIPs[vi]
				a.candsFresh = false
				a.loadDIPRacks(v)
				if s, _ := a.scan(v, w.Rates[0][vi]); s >= 0 {
					placed++
				}
			}
		}
		scanAll()
		if placed == 0 {
			t.Fatalf("%s: no probe VIP fits anywhere; the gate would price only rejections", tc.name)
		}
		if allocs := testing.AllocsPerRun(20, scanAll); allocs != 0 {
			t.Errorf("%s: a sweep of %d scans allocates %v times, want 0", tc.name, len(probes), allocs)
		}
	}
}

// TestOverMatchesDivision carries the proof that over's compare is the
// final feasibility test: for every capacity c from +0 up, l > c decides exactly
// as l > c && l/c > 1 did. It checks the edges — 0, the smallest subnormal,
// a capacity and its ulp neighbours, MaxFloat64, +Inf and NaN, as loads and
// as capacities — and seeded random pairs, both near each other and of
// unrelated magnitude.
func TestOverMatchesDivision(t *testing.T) {
	a := &assigner{loads: make(netsim.Loads, 1), effCap: make([]float64, 1)}
	check := func(l, c float64) {
		t.Helper()
		a.effCap[0] = c
		want := l > c && l/c > 1
		if got := a.over(0, l); got != want {
			t.Fatalf("load %v (%#x), capacity %v (%#x): over = %v, the division says %v",
				l, math.Float64bits(l), c, math.Float64bits(c), got, want)
		}
	}
	vals := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), 1, 8e10, 1e11, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, c := range []float64{math.SmallestNonzeroFloat64, 0x1p-1022, 1, 8e10, 0.8 * 1e11, math.MaxFloat64} {
		vals = append(vals, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)),
			math.Nextafter(math.Nextafter(c, math.Inf(1)), math.Inf(1)))
	}
	for _, c := range vals {
		if math.Signbit(c) {
			continue // a capacity is a headroom share of a link's, never negative or -0
		}
		for _, l := range vals {
			check(l, c)
			check(-l, c)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		c := math.Abs(math.Float64frombits(rng.Uint64()))
		var l float64
		switch i % 3 {
		case 0: // a few ulps either side of the capacity
			l = math.Float64frombits(math.Float64bits(c) + uint64(rng.Intn(7)) - 3)
		case 1: // a relative step either side
			l = c * (1 + (rng.Float64()-0.5)*1e-12)
		default: // unrelated
			l = math.Abs(math.Float64frombits(rng.Uint64()))
		}
		check(l, c)
	}
}
