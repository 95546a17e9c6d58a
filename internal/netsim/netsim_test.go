package netsim

import (
	"math"
	"testing"

	"duet/internal/topology"
)

func defaultNet(t testing.TB) *Network {
	t.Helper()
	return New(topology.MustNew(topology.DefaultConfig()))
}

// unitFlow is UnitVec's vector alone.
func (n *Network) unitFlow(src, dst topology.SwitchID) ([]LinkFrac, error) {
	v, err := n.UnitVec(src, dst)
	return v.Links(), err
}

// internetFlow is InternetVec's vector alone.
func (n *Network) internetFlow(dst topology.SwitchID) ([]LinkFrac, error) {
	v, err := n.InternetVec(dst)
	return v.Links(), err
}

// intoDst sums the flow fractions arriving at dst.
func intoDst(n *Network, vec []LinkFrac, dst topology.SwitchID) float64 {
	var sum float64
	for _, lf := range vec {
		link := n.Topo.Link(lf.Dir.LinkOf())
		to := link.B
		if lf.Dir%2 == 1 {
			to = link.A
		}
		if to == dst {
			sum += lf.Frac
		}
	}
	return sum
}

func TestUnitFlowSelf(t *testing.T) {
	n := defaultNet(t)
	vec, err := n.unitFlow(5, 5)
	if err != nil || len(vec) != 0 {
		t.Fatalf("self flow = %v, %v; want empty", vec, err)
	}
}

func TestUnitFlowSameContainer(t *testing.T) {
	n := defaultNet(t)
	src := n.Topo.TorID(0, 0)
	dst := n.Topo.TorID(0, 1)
	vec, err := n.unitFlow(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Path ToR→Agg→ToR: one unit up split over 4 Aggs, one unit down.
	if got := intoDst(n, vec, dst); math.Abs(got-1) > 1e-9 {
		t.Fatalf("flow into dst = %v, want 1", got)
	}
	// No core links should be touched.
	for _, lf := range vec {
		link := n.Topo.Link(lf.Dir.LinkOf())
		if n.Topo.Switch(link.A).Kind == topology.Core || n.Topo.Switch(link.B).Kind == topology.Core {
			t.Fatalf("intra-container flow crossed core link %d", lf.Dir)
		}
	}
	// Up split equal across the 4 Aggs.
	for _, lf := range vec {
		if math.Abs(lf.Frac-0.25) > 1e-9 {
			t.Fatalf("unexpected fraction %v on link %d", lf.Frac, lf.Dir)
		}
	}
	if len(vec) != 8 {
		t.Fatalf("link count = %d, want 8 (4 up + 4 down)", len(vec))
	}
}

func TestUnitFlowCrossContainer(t *testing.T) {
	n := defaultNet(t)
	src := n.Topo.TorID(0, 0)
	dst := n.Topo.TorID(3, 7)
	vec, err := n.unitFlow(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got := intoDst(n, vec, dst); math.Abs(got-1) > 1e-9 {
		t.Fatalf("flow into dst = %v, want 1", got)
	}
	// Conservation at every intermediate node: inflow == outflow.
	in := make(map[topology.SwitchID]float64)
	out := make(map[topology.SwitchID]float64)
	for _, lf := range vec {
		link := n.Topo.Link(lf.Dir.LinkOf())
		from, to := link.A, link.B
		if lf.Dir%2 == 1 {
			from, to = to, from
		}
		out[from] += lf.Frac
		in[to] += lf.Frac
	}
	for s, o := range out {
		if s == src {
			continue
		}
		if math.Abs(in[s]-o) > 1e-9 {
			t.Fatalf("conservation violated at %s: in=%v out=%v", n.Topo.Switch(s).Name, in[s], o)
		}
	}
	if math.Abs(out[src]-1) > 1e-9 {
		t.Fatalf("src emits %v, want 1", out[src])
	}
}

func TestUnitFlowToAggAndCore(t *testing.T) {
	n := defaultNet(t)
	src := n.Topo.TorID(2, 3)

	// VIP assigned to an Agg in the same container: single hop.
	agg := n.Topo.AggID(2, 1)
	vec, err := n.unitFlow(src, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1 || math.Abs(vec[0].Frac-1) > 1e-9 {
		t.Fatalf("ToR→local Agg should be a single full link, got %v", vec)
	}

	// VIP assigned to a core switch.
	core := n.Topo.CoreID(0)
	vec, err = n.unitFlow(src, core)
	if err != nil {
		t.Fatal(err)
	}
	if got := intoDst(n, vec, core); math.Abs(got-1) > 1e-9 {
		t.Fatalf("flow into core = %v, want 1", got)
	}
}

func TestUnitFlowCachedAcrossCalls(t *testing.T) {
	n := defaultNet(t)
	a, err := n.unitFlow(n.Topo.TorID(0, 0), n.Topo.TorID(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.unitFlow(n.Topo.TorID(0, 0), n.Topo.TorID(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("expected cached slice to be returned")
	}
}

func TestFailSwitchReroutes(t *testing.T) {
	n := defaultNet(t)
	src := n.Topo.TorID(0, 0)
	dst := n.Topo.TorID(0, 1)

	// Fail 3 of the 4 Aggs in container 0: all traffic should squeeze
	// through the surviving Agg.
	for j := 1; j < 4; j++ {
		n.FailSwitch(n.Topo.AggID(0, j))
	}
	vec, err := n.unitFlow(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 2 {
		t.Fatalf("links used = %d, want 2", len(vec))
	}
	for _, lf := range vec {
		if math.Abs(lf.Frac-1) > 1e-9 {
			t.Fatalf("surviving path should carry full unit, got %v", lf.Frac)
		}
	}
}

func TestFailSwitchUnreachable(t *testing.T) {
	n := defaultNet(t)
	src := n.Topo.TorID(0, 0)
	dst := n.Topo.TorID(1, 0)

	// Isolate the source rack by failing all its Aggs.
	for j := 0; j < 4; j++ {
		n.FailSwitch(n.Topo.AggID(0, j))
	}
	if _, err := n.unitFlow(src, dst); err != ErrUnreachable {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}

	// Destination down.
	n.ClearFailures()
	n.FailSwitch(dst)
	if _, err := n.unitFlow(src, dst); err != ErrUnreachable {
		t.Fatalf("dst down: got %v, want ErrUnreachable", err)
	}
}

func TestFailContainer(t *testing.T) {
	n := defaultNet(t)
	n.FailContainer(0)
	for _, s := range n.Topo.ContainerSwitches(0) {
		if n.SwitchUp(s) {
			t.Fatalf("switch %v still up after container failure", s)
		}
	}
	// Cross-container traffic avoiding container 0 still works.
	if _, err := n.unitFlow(n.Topo.TorID(1, 0), n.Topo.TorID(2, 0)); err != nil {
		t.Fatal(err)
	}
	n.ClearFailures()
	if _, err := n.unitFlow(n.Topo.TorID(0, 0), n.Topo.TorID(1, 0)); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestEpochBumpsOnFailureChange(t *testing.T) {
	n := defaultNet(t)
	e0 := n.Epoch()
	n.FailSwitch(3)
	if n.Epoch() == e0 {
		t.Fatal("epoch did not change on failure")
	}
	e1 := n.Epoch()
	n.FailSwitch(3) // no-op
	if n.Epoch() != e1 {
		t.Fatal("epoch changed on redundant failure")
	}
	n.RecoverSwitch(3)
	if n.Epoch() == e1 {
		t.Fatal("epoch did not change on recovery")
	}
}

func TestLoadsAndMaxUtilization(t *testing.T) {
	n := defaultNet(t)
	loads := n.NewLoads()
	src := n.Topo.TorID(0, 0)
	agg := n.Topo.AggID(0, 0)

	addFlow := func(src, dst topology.SwitchID, rate float64) {
		vec, err := n.unitFlow(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, lf := range vec {
			loads[lf.Dir] += rate * lf.Frac
		}
	}

	// 5 Gbps over a single 10 Gbps ToR→Agg link → 50% utilization.
	addFlow(src, agg, 5e9)
	u, dir := n.MaxUtilization(loads)
	if math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("max util = %v, want 0.5", u)
	}
	if dir.LinkOf() < 0 || loads[dir]/n.Capacity(dir) != u {
		t.Fatal("max link inconsistent")
	}

	// Adding the reverse flow should not change max (separate direction).
	addFlow(agg, src, 4e9)
	u2, _ := n.MaxUtilization(loads)
	if math.Abs(u2-0.5) > 1e-9 {
		t.Fatalf("max util after reverse flow = %v, want 0.5", u2)
	}
}

func TestMaxUtilizationEmpty(t *testing.T) {
	n := defaultNet(t)
	u, dir := n.MaxUtilization(n.NewLoads())
	if u != 0 || dir != -1 {
		t.Fatalf("empty loads: %v, %v", u, dir)
	}
}

func TestDirLinkHelpers(t *testing.T) {
	if Forward(3).LinkOf() != 3 || Reverse(3).LinkOf() != 3 {
		t.Fatal("LinkOf wrong")
	}
	if Forward(3) == Reverse(3) {
		t.Fatal("directions must differ")
	}
}

// Flow conservation across many random pairs.
func TestUnitFlowConservationSweep(t *testing.T) {
	n := defaultNet(t)
	total := topology.SwitchID(n.Topo.NumSwitches())
	for src := topology.SwitchID(0); src < total; src += 13 {
		for dst := topology.SwitchID(1); dst < total; dst += 17 {
			if src == dst {
				continue
			}
			vec, err := n.unitFlow(src, dst)
			if err != nil {
				t.Fatalf("%v→%v: %v", src, dst, err)
			}
			if got := intoDst(n, vec, dst); math.Abs(got-1) > 1e-9 {
				t.Fatalf("%v→%v: into dst = %v", src, dst, got)
			}
		}
	}
}

// BenchmarkUnitFlowCold prices one vector's ECMP propagation: every iteration
// forgets the vectors (the distance cache stays warm) without reallocating
// the index, as a failure-state change does.
func BenchmarkUnitFlowCold(b *testing.B) {
	n := defaultNet(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(n.flowIdx)
		n.vecs = n.vecs[:0]
		if _, err := n.unitFlow(n.Topo.TorID(0, 0), n.Topo.TorID(5, 3)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnitFlowCached(b *testing.B) {
	n := defaultNet(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.unitFlow(n.Topo.TorID(0, 0), n.Topo.TorID(5, 3)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestInternetFlowConservation(t *testing.T) {
	n := defaultNet(t)
	for _, dst := range []topology.SwitchID{
		n.Topo.TorID(3, 5), n.Topo.AggID(2, 1), n.Topo.CoreID(4),
	} {
		vec, err := n.internetFlow(dst)
		if err != nil {
			t.Fatal(err)
		}
		// One unit spread over all cores arrives in full at dst (minus the
		// share originating AT dst if dst is a core).
		got := intoDst(n, vec, dst)
		want := 1.0
		if n.Topo.Switch(dst).Kind == topology.Core {
			want = 1.0 - 1.0/float64(n.Topo.Cfg.Cores)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("dst %s: internet inflow %v, want %v", n.Topo.Switch(dst).Name, got, want)
		}
	}
}

func TestInternetFlowCached(t *testing.T) {
	n := defaultNet(t)
	a, err := n.internetFlow(n.Topo.TorID(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.internetFlow(n.Topo.TorID(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("InternetVec not cached")
	}
	// Failure invalidates the cache.
	n.FailSwitch(n.Topo.CoreID(0))
	c, err := n.internetFlow(n.Topo.TorID(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == 0 {
		t.Fatal("no flow after single core failure")
	}
	for _, lf := range c {
		link := n.Topo.Link(lf.Dir.LinkOf())
		if link.A == n.Topo.CoreID(0) || link.B == n.Topo.CoreID(0) {
			t.Fatal("failed core still carries internet ingress")
		}
	}
}

func TestInternetFlowAllCoresDown(t *testing.T) {
	n := defaultNet(t)
	for i := 0; i < n.Topo.Cfg.Cores; i++ {
		n.FailSwitch(n.Topo.CoreID(i))
	}
	// All ingress points dead: no flow, no error (the traffic is gone).
	vec, err := n.internetFlow(n.Topo.TorID(0, 0))
	if err != nil || vec != nil {
		t.Fatalf("got %v, %v; want nil, nil", vec, err)
	}
}

// TestFailureInvalidatesAllCaches pins the invalidation contract the
// assignment engine depends on: every failure-state change (FailSwitch,
// recovery) bumps the epoch and flushes all three memo tables —
// distCache (via rerouted UnitVec paths), flowCache (stale spread vectors
// are never returned), and inetCache (ingress spread recomputed). A stale
// cache here would silently route assignment decisions over dead links.
func TestFailureInvalidatesAllCaches(t *testing.T) {
	n := defaultNet(t)
	src, dst := n.Topo.TorID(0, 0), n.Topo.TorID(0, 1)

	flowBefore, err := n.unitFlow(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	inetBefore, err := n.internetFlow(dst)
	if err != nil {
		t.Fatal(err)
	}

	// An Agg failure must bump the epoch and flush the flow cache: the
	// rerouted vector must avoid the dead switch, which a cache hit could not.
	agg := n.Topo.AggID(0, 0)
	e0 := n.Epoch()
	n.FailSwitch(agg)
	if n.Epoch() == e0 {
		t.Fatal("FailSwitch did not bump epoch")
	}
	flowFailed, err := n.unitFlow(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(flowBefore) > 0 && len(flowFailed) > 0 && &flowBefore[0] == &flowFailed[0] {
		t.Fatal("UnitVec returned the pre-failure cached vector")
	}
	for _, lf := range flowFailed {
		if l := n.Topo.Link(lf.Dir.LinkOf()); l.A == agg || l.B == agg {
			t.Fatal("stale flowCache/distCache: failed switch still on path")
		}
	}

	// A core failure must flush inetCache: the new spread avoids the core.
	core0 := n.Topo.CoreID(0)
	n.FailSwitch(core0)
	inetFailed, err := n.internetFlow(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(inetBefore) > 0 && len(inetFailed) > 0 && &inetBefore[0] == &inetFailed[0] {
		t.Fatal("InternetVec returned the pre-failure cached vector")
	}
	for _, lf := range inetFailed {
		l := n.Topo.Link(lf.Dir.LinkOf())
		if l.A == core0 || l.B == core0 {
			t.Fatal("stale inetCache: failed core still carries ingress")
		}
	}

	// Recovery bumps the epoch again and restores the original answers —
	// recomputed, not replayed from a stale generation.
	e1 := n.Epoch()
	n.ClearFailures()
	if n.Epoch() == e1 {
		t.Fatal("ClearFailures did not bump epoch")
	}
	flowAfter, err := n.unitFlow(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(flowAfter) != len(flowBefore) {
		t.Fatalf("recovered UnitVec has %d links, want %d", len(flowAfter), len(flowBefore))
	}
	want := map[DirLink]float64{}
	for _, lf := range flowBefore {
		want[lf.Dir] = lf.Frac
	}
	for _, lf := range flowAfter {
		if math.Abs(want[lf.Dir]-lf.Frac) > 1e-9 {
			t.Fatalf("recovered flow on link %d = %v, want %v", lf.Dir, lf.Frac, want[lf.Dir])
		}
	}
	inetAfter, err := n.internetFlow(dst)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantIn := intoDst(n, inetAfter, dst), 1.0; math.Abs(got-wantIn) > 1e-9 {
		t.Fatalf("recovered internet inflow %v, want %v", got, wantIn)
	}

	// Two invalidations in a row: fail a switch, warm every vector, recover,
	// fail another. The index is cleared in place, so a slot that survived
	// either generation would serve a vector over a down switch, or another
	// pair's vector. Asked in the reverse order, every answer must equal a
	// fresh Network's under the same failure.
	aggA, aggB := n.Topo.AggID(0, 1), n.Topo.AggID(0, 2)
	var ends []topology.SwitchID
	for i := 0; i < n.Topo.Cfg.ToRsPerContainer; i++ {
		ends = append(ends, n.Topo.TorID(0, i), n.Topo.TorID(1, i))
	}
	ends = append(ends, n.Topo.AggID(1, 0), n.Topo.CoreID(0), n.Topo.CoreID(1))
	n.FailSwitch(aggA)
	for _, s := range ends {
		for _, d := range ends {
			n.unitFlow(s, d)
		}
		n.internetFlow(s)
	}
	n.RecoverSwitch(aggA)
	n.FailSwitch(aggB)
	fresh := New(n.Topo)
	fresh.FailSwitch(aggB)
	same := func(label string, got, want []LinkFrac) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d links, a fresh network has %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: link %d = %+v, a fresh network has %+v", label, i, got[i], want[i])
			}
			if l := n.Topo.Link(got[i].Dir.LinkOf()); l.A == aggB || l.B == aggB {
				t.Fatalf("%s crosses the down switch", label)
			}
		}
	}
	for i := len(ends) - 1; i >= 0; i-- {
		s := ends[i]
		for j := len(ends) - 1; j >= 0; j-- {
			got, _ := n.unitFlow(s, ends[j])
			want, _ := fresh.unitFlow(s, ends[j])
			same("UnitVec", got, want)
		}
		got, _ := n.internetFlow(s)
		want, _ := fresh.internetFlow(s)
		same("InternetVec", got, want)
	}
}

// TestInternetFlowOnlyLiveCore: ingress to the only live core terminates
// there, so its vector is nil, and a computed nil is cached like any other
// vector — it is not "not computed". A recovery brings a real vector back.
func TestInternetFlowOnlyLiveCore(t *testing.T) {
	n := defaultNet(t)
	last := n.Topo.CoreID(n.Topo.Cfg.Cores - 1)
	for i := 0; i < n.Topo.Cfg.Cores-1; i++ {
		n.FailSwitch(n.Topo.CoreID(i))
	}
	for k := 0; k < 2; k++ {
		vec, err := n.internetFlow(last)
		if err != nil || vec != nil {
			t.Fatalf("call %d: got %v, %v; want nil, nil", k, vec, err)
		}
		if n.inetIdx[last] == 0 {
			t.Fatalf("call %d: the computed nil vector is not cached", k)
		}
	}
	cached := len(n.vecs)
	if vec, _ := n.internetFlow(last); vec != nil || len(n.vecs) != cached {
		t.Fatal("a cached nil vector was computed again")
	}
	n.RecoverSwitch(n.Topo.CoreID(0))
	vec, err := n.internetFlow(last)
	if err != nil || len(vec) == 0 {
		t.Fatalf("after a core recovered: got %v, %v; want a vector", vec, err)
	}
	if got, want := intoDst(n, vec, last), 1.0/float64(n.Topo.Cfg.Cores); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ingress into the core %v, want the recovered core's share %v", got, want)
	}
}

// TestTightHintStaysInVector: a vector's tight-link hint is a valid position
// in it whatever a caller stores — a position outside the vector is ignored —
// it is shared by every handle on the vector, and a failure-state change
// drops every hint with the vectors.
func TestTightHintStaysInVector(t *testing.T) {
	n := New(topology.MustNew(topology.Config{Containers: 2, ToRsPerContainer: 4, AggsPerContainer: 2, Cores: 4, ServersPerToR: 10}))
	each := func(fn func(Vec)) {
		for d := 0; d < n.Topo.NumSwitches(); d++ {
			dst := topology.SwitchID(d)
			if v, err := n.InternetVec(dst); err == nil {
				fn(v)
			}
			for s := 0; s < n.Topo.NumSwitches(); s++ {
				if v, err := n.UnitVec(topology.SwitchID(s), dst); err == nil {
					fn(v)
				}
			}
		}
	}
	valid := func(label string) {
		t.Helper()
		each(func(v Vec) {
			if k := v.Tight(); len(v.Links()) > 0 && (k < 0 || k >= len(v.Links())) || len(v.Links()) == 0 && k != 0 {
				t.Fatalf("%s: hint %d in a vector of %d links", label, k, len(v.Links()))
			}
		})
	}
	cleared := func(label string) {
		t.Helper()
		each(func(v Vec) {
			if k := v.Tight(); k != 0 {
				t.Fatalf("%s: hint %d survived a failure-state change", label, k)
			}
		})
	}
	valid("fresh")
	cleared("fresh")
	for round := 0; round < 3; round++ {
		i := 0
		each(func(v Vec) {
			i++
			k := i%(len(v.Links())+3) - 1 // -1 … len+1
			before := v.Tight()
			v.SetTight(k)
			want := before
			if k >= 0 && k < len(v.Links()) {
				want = k
			}
			if got := v.Tight(); got != want {
				t.Fatalf("SetTight(%d) on a vector of %d links: hint %d, want %d", k, len(v.Links()), got, want)
			}
		})
		valid("after SetTight")
	}
	src, dst := n.Topo.TorID(0, 0), n.Topo.TorID(1, 3)
	a, _ := n.UnitVec(src, dst)
	a.SetTight(len(a.Links()) - 1)
	if b, _ := n.UnitVec(src, dst); b.Tight() != len(a.Links())-1 {
		t.Fatalf("a second handle reads hint %d, want %d", b.Tight(), len(a.Links())-1)
	}
	var self Vec
	if self, _ = n.UnitVec(src, src); self.Links() != nil || self.Tight() != 0 {
		t.Fatalf("the self flow has links %v and hint %d", self.Links(), self.Tight())
	}
	self.SetTight(0) // the empty vector holds no hint; storing one is a no-op

	n.FailSwitch(n.Topo.AggID(0, 1))
	cleared("after FailSwitch")
	each(func(v Vec) { v.SetTight(len(v.Links()) - 1) })
	n.RecoverSwitch(n.Topo.AggID(0, 1))
	cleared("after RecoverSwitch")
	valid("after RecoverSwitch")
}
