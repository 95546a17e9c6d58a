package assign

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"duet/internal/netsim"
	"duet/internal/topology"
	"duet/internal/workload"
)

// smallWorld builds a modest network + workload that assigns in milliseconds.
func smallWorld(t testing.TB, numVIPs int, totalRate float64, seed int64) (*netsim.Network, *workload.Workload) {
	t.Helper()
	topo := topology.MustNew(topology.Config{
		Containers:       4,
		ToRsPerContainer: 8,
		AggsPerContainer: 4,
		Cores:            8,
		ServersPerToR:    20,
	})
	net := netsim.New(topo)
	cfg := workload.Config{
		NumVIPs:      numVIPs,
		TotalRate:    totalRate,
		Epochs:       4,
		Seed:         seed,
		TrafficSkew:  1.6,
		MaxDIPs:      600,
		InternetFrac: 0.3,
		ChurnStdDev:  0.25,
	}
	w, err := workload.Generate(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	return net, w
}

func TestComputeAssignsMostTraffic(t *testing.T) {
	net, w := smallWorld(t, 400, 4e11, 1)
	asg, err := Compute(net, w, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if asg.TotalRate == 0 {
		t.Fatal("no traffic accounted")
	}
	// The paper's algorithm keeps 86–99.9% of traffic on HMuxes; even on the
	// scaled topology the bulk must land on switches.
	if f := asg.AssignedFraction(); f < 0.80 {
		t.Fatalf("HMux fraction = %.3f, want ≥0.80", f)
	}
	if asg.MRU > 1.0+1e-9 {
		t.Fatalf("MRU = %.3f exceeds capacity", asg.MRU)
	}
	if asg.NumAssigned == 0 {
		t.Fatal("nothing assigned")
	}
}

func TestConstraintsRespected(t *testing.T) {
	net, w := smallWorld(t, 400, 1.0e12, 2)
	opts := DefaultOptions()
	asg, err := Compute(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Memory constraint per switch.
	for s, used := range asg.MemUsed {
		if used > opts.MemCapacity {
			t.Fatalf("switch %d memory %d > %d", s, used, opts.MemCapacity)
		}
	}
	// Link constraint: loads within 80% of bandwidth.
	for dir := range asg.Loads {
		cap := opts.LinkHeadroom * net.Capacity(netsim.DirLink(dir))
		if asg.Loads[dir] > cap*(1+1e-9) {
			t.Fatalf("dirlink %d load %.0f exceeds effective capacity %.0f",
				dir, asg.Loads[dir], cap)
		}
	}
	// Huge-fanout VIPs (> MemCapacity DIPs) must be unassigned.
	for vi := range w.VIPs {
		if w.VIPs[vi].NumDIPs() > opts.MemCapacity && asg.SwitchOf[vi] != Unassigned {
			t.Fatalf("VIP %d with %d DIPs assigned to a switch", vi, w.VIPs[vi].NumDIPs())
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	net, w := smallWorld(t, 200, 5e11, 3)
	a1, err := Compute(net, w, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Compute(netsim.New(net.Topo), w, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for vi := range a1.SwitchOf {
		if a1.SwitchOf[vi] != a2.SwitchOf[vi] {
			t.Fatalf("assignment differs at VIP %d with identical seeds", vi)
		}
	}
}

func TestGreedyBeatsRandom(t *testing.T) {
	// Figure 18's shape: Random strands more traffic on the SMuxes (or at
	// best ties) because it ignores resource utilization.
	net, w := smallWorld(t, 400, 1.2e12, 4)
	g, err := Compute(net, w, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ropts := DefaultOptions()
	ropts.Strategy = Random
	r, err := Compute(netsim.New(net.Topo), w, 0, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if g.UnassignedRate() > r.UnassignedRate()+1e-6 {
		t.Fatalf("greedy leftover %.3g > random leftover %.3g",
			g.UnassignedRate(), r.UnassignedRate())
	}
	// Greedy should also achieve a lower or equal MRU for the same workload.
	if g.MRU > r.MRU+0.10 {
		t.Fatalf("greedy MRU %.3f much worse than random %.3f", g.MRU, r.MRU)
	}
}

func TestStickyReducesShuffling(t *testing.T) {
	net, w := smallWorld(t, 300, 4e11, 5)
	opts := DefaultOptions()
	prev, err := Compute(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1: fresh vs sticky reassignment.
	fresh, err := Compute(netsim.New(net.Topo), w, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := ComputeSticky(netsim.New(net.Topo), w, 1, prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	rates := w.Rates[1]
	freshShuffle := ShuffledRate(prev, fresh, rates)
	stickyShuffle := ShuffledRate(prev, sticky, rates)
	if stickyShuffle > freshShuffle {
		t.Fatalf("sticky shuffled %.3g > non-sticky %.3g", stickyShuffle, freshShuffle)
	}
	// Sticky must remain competitive on HMux fraction (paper: nearly equal).
	if sticky.AssignedFraction() < fresh.AssignedFraction()-0.10 {
		t.Fatalf("sticky fraction %.3f much worse than fresh %.3f",
			sticky.AssignedFraction(), fresh.AssignedFraction())
	}
	// And should shuffle only a small share of total traffic (paper: ≤~5%).
	if stickyShuffle/sticky.TotalRate > 0.25 {
		t.Fatalf("sticky shuffled %.1f%% of traffic", 100*stickyShuffle/sticky.TotalRate)
	}
}

func TestStickyNilPrevFallsBack(t *testing.T) {
	net, w := smallWorld(t, 100, 2e11, 6)
	asg, err := ComputeSticky(net, w, 0, nil, DefaultOptions())
	if err != nil || asg == nil {
		t.Fatal(err)
	}
}

func TestEpochOutOfRange(t *testing.T) {
	net, w := smallWorld(t, 50, 1e11, 7)
	if _, err := Compute(net, w, 99, DefaultOptions()); err == nil {
		t.Fatal("bad epoch accepted")
	}
	if _, err := Compute(net, w, -1, DefaultOptions()); err == nil {
		t.Fatal("negative epoch accepted")
	}
}

func TestPrevLengthMismatch(t *testing.T) {
	net, w := smallWorld(t, 50, 1e11, 8)
	bad := &Assignment{SwitchOf: make([]int32, 3)}
	if _, err := ComputeSticky(net, w, 0, bad, DefaultOptions()); err == nil {
		t.Fatal("mismatched prev accepted")
	}
}

func TestMaxHMuxVIPsCap(t *testing.T) {
	net, w := smallWorld(t, 200, 2e11, 9)
	opts := DefaultOptions()
	opts.MaxHMuxVIPs = 10
	asg, err := Compute(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if asg.NumAssigned > 10 {
		t.Fatalf("assigned %d VIPs, cap 10", asg.NumAssigned)
	}
}

func TestAssignmentAvoidsFailedSwitches(t *testing.T) {
	net, w := smallWorld(t, 200, 5e11, 10)
	net.FailContainer(0)
	asg, err := Compute(net, w, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for vi, s := range asg.SwitchOf {
		if s == Unassigned {
			continue
		}
		if !net.SwitchUp(topology.SwitchID(s)) {
			t.Fatalf("VIP %d assigned to failed switch %d", vi, s)
		}
		if net.Topo.Switch(topology.SwitchID(s)).Container == 0 {
			t.Fatalf("VIP %d assigned inside failed container", vi)
		}
	}
}

func TestRatePerSwitchSums(t *testing.T) {
	net, w := smallWorld(t, 200, 5e11, 11)
	asg, err := Compute(net, w, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	per := asg.RatePerSwitch(w, 0, net.Topo.NumSwitches())
	var sum float64
	for _, r := range per {
		sum += r
	}
	if math.Abs(sum-asg.AssignedRate) > 1e-3*asg.AssignedRate {
		t.Fatalf("per-switch sum %.3g != assigned %.3g", sum, asg.AssignedRate)
	}
}

func TestSMuxRacksStriping(t *testing.T) {
	topo := topology.MustNew(topology.DefaultConfig())
	racks := SMuxRacks(topo, 16)
	if len(racks) != 16 {
		t.Fatalf("racks = %d", len(racks))
	}
	// Spread across containers: with 8 containers and 16 SMuxes, every
	// container hosts exactly 2.
	perC := make(map[int]int)
	for _, r := range racks {
		perC[topo.Switch(topo.Rack(r)).Container]++
	}
	for c, n := range perC {
		if n != 2 {
			t.Fatalf("container %d hosts %d SMuxes, want 2", c, n)
		}
	}
	if SMuxRacks(topo, 0) != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestFullLoadsCoverAllTraffic(t *testing.T) {
	net, w := smallWorld(t, 200, 5e11, 12)
	asg, err := Compute(net, w, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	smuxRacks := SMuxRacks(net.Topo, 8)
	loads, err := FullLoads(net, w, 0, asg, smuxRacks)
	if err != nil {
		t.Fatal(err)
	}
	max, _ := net.MaxUtilization(loads)
	if max <= 0 {
		t.Fatal("no load computed")
	}
	// HMux-only loads are a subset of full loads.
	hmuxMax, _ := net.MaxUtilization(asg.Loads)
	if max < hmuxMax-1e-9 {
		t.Fatalf("full max %.3f < hmux-only %.3f", max, hmuxMax)
	}
}

func TestFullLoadsFailoverToSMux(t *testing.T) {
	net, w := smallWorld(t, 200, 5e11, 13)
	asg, err := Compute(net, w, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	smuxRacks := SMuxRacks(net.Topo, 8)

	normal, err := FullLoads(net, w, 0, asg, smuxRacks)
	if err != nil {
		t.Fatal(err)
	}
	normalMax, _ := net.MaxUtilization(normal)

	// Fail the switch hosting the most VIP traffic; its VIPs divert to the
	// SMuxes and utilization shifts but the network keeps working.
	per := asg.RatePerSwitch(w, 0, net.Topo.NumSwitches())
	worst, worstRate := 0, 0.0
	for s, r := range per {
		if r > worstRate {
			worst, worstRate = s, r
		}
	}
	if worstRate == 0 {
		t.Skip("no assigned switch carries traffic")
	}
	net.FailSwitch(topology.SwitchID(worst))
	failed, err := FullLoads(net, w, 0, asg, smuxRacks)
	if err != nil {
		t.Fatal(err)
	}
	failedMax, _ := net.MaxUtilization(failed)
	if failedMax <= 0 {
		t.Fatal("no load after failure")
	}
	t.Logf("max util normal=%.3f failed=%.3f", normalMax, failedMax)
}

// TestShuffledRateAndMovedVIPs keeps its name from when the moved set had
// its own accessor; the shuffled rate is the sum over exactly that set.
func TestShuffledRateAndMovedVIPs(t *testing.T) {
	prev := &Assignment{SwitchOf: []int32{1, 2, Unassigned, 4}}
	next := &Assignment{SwitchOf: []int32{1, 3, 5, Unassigned}}
	rates := []float64{10, 20, 30, 40}
	if got := ShuffledRate(prev, next, rates); got != 90 {
		t.Fatalf("ShuffledRate = %v, want 90", got)
	}
	if ShuffledRate(nil, next, rates) != 0 || ShuffledRate(prev, nil, rates) != 0 {
		t.Fatal("nil handling wrong")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MemCapacity != 512 || o.LinkHeadroom != 0.8 || o.MaxHMuxVIPs != 16384 || o.Delta != 0.05 {
		t.Fatalf("defaults: %+v", o)
	}
}

func BenchmarkComputeGreedy(b *testing.B) {
	net, w := smallWorld(b, 300, 8e11, 20)
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(net, w, 0, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeSticky(b *testing.B) {
	net, w := smallWorld(b, 300, 8e11, 21)
	opts := DefaultOptions()
	prev, err := Compute(net, w, 0, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeSticky(net, w, 1, prev, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBestFitStrategy(t *testing.T) {
	net, w := smallWorld(t, 300, 4e11, 50)
	g, err := Compute(net, w, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bo := DefaultOptions()
	bo.Strategy = BestFit
	b, err := Compute(netsim.New(net.Topo), w, 0, bo)
	if err != nil {
		t.Fatal(err)
	}
	// BestFit must remain a valid assignment with comparable coverage.
	if b.AssignedFraction() < g.AssignedFraction()-0.05 {
		t.Fatalf("BestFit coverage %.3f much worse than greedy %.3f",
			b.AssignedFraction(), g.AssignedFraction())
	}
	if b.MRU > 1+1e-9 {
		t.Fatalf("BestFit violated capacity: MRU %.3f", b.MRU)
	}
	for s, used := range b.MemUsed {
		if used > bo.MemCapacity {
			t.Fatalf("switch %d memory %d", s, used)
		}
	}
}

// TestVIPOrderMatchesCompare holds vipOrder's radix sort to the compare it
// replaced — decreasing rate, then increasing index — on rates with many
// ties, zeros of both signs, negative and subnormal rates, +Inf and -Inf,
// and on the generator's own trace.
func TestVIPOrderMatchesCompare(t *testing.T) {
	want := func(rates []float64) []int {
		order := make([]int, len(rates))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			x, y := order[i], order[j]
			if rates[x] != rates[y] {
				return rates[x] > rates[y]
			}
			return x < y
		})
		return order
	}
	check := func(label string, rates []float64) {
		t.Helper()
		got, spare := vipOrder(&workload.Workload{Rates: [][]float64{rates}}, 0)
		if w := want(rates); !slices.Equal(got, w) {
			t.Fatalf("%s: order %v, the compare says %v", label, got, w)
		}
		if len(spare) != 0 || cap(spare) != len(rates) {
			t.Fatalf("%s: spare buffer len %d cap %d, want 0 and %d", label, len(spare), cap(spare), len(rates))
		}
	}
	check("empty", nil)
	check("one", []float64{3})
	edges := []float64{0, math.Copysign(0, -1), 1, 1, -1, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), 1e9, math.Nextafter(1e9, 0), math.Nextafter(1e9, 2e9), 0, 1}
	check("edges", edges)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rates := make([]float64, 1+rng.Intn(500))
		for i := range rates {
			switch rng.Intn(4) {
			case 0:
				rates[i] = edges[rng.Intn(len(edges))]
			case 1:
				rates[i] = float64(rng.Intn(8)) // ties
			default:
				rates[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(30)-10))
			}
		}
		check(fmt.Sprintf("trial %d", trial), rates)
	}
	_, w := smallWorld(t, 2000, 6e11, 1)
	for e := range w.Rates {
		check(fmt.Sprintf("trace epoch %d", e), w.Rates[e])
	}
}
