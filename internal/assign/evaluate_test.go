package assign

import (
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
	ok := a.flows(v, rate, s, func(vec []netsim.LinkFrac, r float64) bool {
		for _, lf := range vec {
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

// scanFullSum is scan's Greedy/BestFit branch over evaluateFullSum.
func (a *assigner) scanFullSum(v *workload.VIP, rate float64) (best topology.SwitchID, bestMRU float64) {
	best, bestMRU = -1, math.Inf(1)
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

// TestEvaluateMatchesFullSum holds the early-exit evaluate to the full-sum
// reference: over seeded fabric states filled by the placement itself, every
// switch for a sample of VIPs at several rates, under Greedy and BestFit;
// then over hand-built edges — a link exactly at capacity and one ulp over,
// rate 0, no Internet share, an unroutable path, a VIP larger than a table.
// scan over the same state picks the same switch and draws the round's RNG
// the same number of times.
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
			opts = opts.withDefaults()
			a, order, err := newRound(net, w, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := newRound(net, w, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			var fit, unfit, picked int
			for k, vi := range order {
				v, rate := &w.VIPs[vi], w.Rates[0][vi]
				if k%7 == 0 {
					for _, scale := range []float64{0.25, 1, 1 + 3*rng.Float64()} {
						f, u := checkEvaluate(t, "seeded", a, v, rate*scale)
						fit, unfit = fit+f, unfit+u
					}
					a.loadDIPRacks(v)
					ref.loadDIPRacks(v)
					got, gotMRU := a.scan(v, rate)
					want, wantMRU := ref.scanFullSum(v, rate)
					if got != want || math.Float64bits(gotMRU) != math.Float64bits(wantMRU) {
						t.Fatalf("strategy %d seed %d VIP %d: scan picked %d (%v), the full sum %d (%v)", strat, seed, vi, got, gotMRU, want, wantMRU)
					}
					if got >= 0 {
						picked++
					}
					if x, y := a.rng.Int63(), ref.rng.Int63(); x != y {
						t.Fatalf("strategy %d seed %d VIP %d: the scans left the RNG apart (%d vs %d)", strat, seed, vi, x, y)
					}
				}
				a.place(vi, Unassigned)
				ref.place(vi, Unassigned)
			}
			// Not vacuous: both answers occur, and most candidates do not fit.
			if fit == 0 || unfit < fit || picked == 0 {
				t.Fatalf("strategy %d seed %d: %d feasible, %d infeasible evaluations, %d scans placed", strat, seed, fit, unfit, picked)
			}
		}
	}

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
