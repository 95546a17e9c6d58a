package assign

import (
	"math/rand"
	"testing"

	"duet/internal/netsim"
	"duet/internal/topology"
	"duet/internal/workload"
)

// assertSameAssignment requires bit-for-bit identical placements — including
// the float accumulators, which only match when both paths performed the
// same summations in the same order.
func assertSameAssignment(t *testing.T, label string, got, want *Assignment) {
	t.Helper()
	for vi := range want.SwitchOf {
		if got.SwitchOf[vi] != want.SwitchOf[vi] {
			t.Fatalf("%s: VIP %d switch = %d, want %d", label, vi, got.SwitchOf[vi], want.SwitchOf[vi])
		}
		if got.TierOf[vi] != want.TierOf[vi] {
			t.Fatalf("%s: VIP %d tier = %v, want %v", label, vi, got.TierOf[vi], want.TierOf[vi])
		}
	}
	if got.NumAssigned != want.NumAssigned || got.NumNMux != want.NumNMux ||
		got.NMuxEntriesUsed != want.NMuxEntriesUsed {
		t.Fatalf("%s: counts = (%d,%d,%d), want (%d,%d,%d)", label,
			got.NumAssigned, got.NumNMux, got.NMuxEntriesUsed,
			want.NumAssigned, want.NumNMux, want.NMuxEntriesUsed)
	}
	if got.AssignedRate != want.AssignedRate || got.TotalRate != want.TotalRate ||
		got.NMuxRate != want.NMuxRate {
		t.Fatalf("%s: rates = (%v,%v,%v), want (%v,%v,%v)", label,
			got.AssignedRate, got.TotalRate, got.NMuxRate,
			want.AssignedRate, want.TotalRate, want.NMuxRate)
	}
	if got.MRU != want.MRU {
		t.Fatalf("%s: MRU = %v, want %v", label, got.MRU, want.MRU)
	}
	for s := range want.MemUsed {
		if got.MemUsed[s] != want.MemUsed[s] {
			t.Fatalf("%s: switch %d memUsed = %d, want %d", label, s, got.MemUsed[s], want.MemUsed[s])
		}
	}
	for d := range want.Loads {
		if got.Loads[d] != want.Loads[d] {
			t.Fatalf("%s: link %d load = %v, want %v", label, d, got.Loads[d], want.Loads[d])
		}
	}
}

// churnEpoch fills epoch e's rates with epoch e-1's, then perturbs a random
// fraction of VIPs — the Fig-15-style sparse drift the incremental path is
// built for. Occasionally it also mutates a VIP's DIP set (backend churn).
func churnEpoch(w *workload.Workload, e int, frac float64, rng *rand.Rand) {
	copy(w.Rates[e], w.Rates[e-1])
	n := int(float64(len(w.VIPs)) * frac)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		vi := rng.Intn(len(w.VIPs))
		w.Rates[e][vi] *= 0.5 + rng.Float64()
	}
	if rng.Intn(3) == 0 {
		vi := rng.Intn(len(w.VIPs))
		v := &w.VIPs[vi]
		v.DIPRacks = append(v.DIPRacks, rng.Intn(32))
	}
}

// TestComputeDeltaEqualsComputeFrom is the tentpole property test: over
// randomized churn chains — sparse rate drift, DIP-set changes, and
// mid-chain switch failure/recovery — the cached incremental recompute
// equals the from-scratch recompute bit for bit, epoch for epoch.
func TestComputeDeltaEqualsComputeFrom(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		net, w := smallWorld(t, 300, 3e11, seed)
		rng := rand.New(rand.NewSource(seed * 1000))
		// Equalize all epochs to epoch 0, then drive churn ourselves so the
		// dirty fraction is controlled.
		for e := 1; e < w.NumEpochs(); e++ {
			churnEpoch(w, e, 0.02, rng)
		}
		opts := DefaultOptions()
		opts.Seed = seed
		opts.NMuxTableSize = 4096

		prev, err := Compute(net, w, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		for e := 1; e < w.NumEpochs(); e++ {
			if e == 2 {
				net.FailSwitch(topology.SwitchID(0)) // dirties the whole fabric
			}
			if e == 3 {
				net.ClearFailures()
			}
			fast, err := ComputeDelta(net, w, e, prev, opts)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := computeFrom(net, w, e, prev, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAssignment(t, "seed/epoch", fast, slow)
			if e != 2 && e != 3 { // net epoch unchanged → sparse rescan
				if fast.Rescanned >= len(w.VIPs)/2 {
					t.Fatalf("epoch %d: rescanned %d of %d VIPs under 2%% churn", e, fast.Rescanned, len(w.VIPs))
				}
				// computeFrom rebuilds every placed VIP's vectors (only
				// clean backstop/NIC keeps skip the re-price).
				if slow.Rescanned < slow.NumAssigned {
					t.Fatalf("epoch %d: computeFrom rescanned %d < %d placed", e, slow.Rescanned, slow.NumAssigned)
				}
			}
			prev = fast
		}
	}
}

// TestComputeDeltaBootstrap: with no previous assignment the incremental
// path degenerates to the ordinary from-scratch Compute.
func TestComputeDeltaBootstrap(t *testing.T) {
	net, w := smallWorld(t, 200, 2e11, 3)
	opts := DefaultOptions()
	opts.Seed = 3
	want, err := Compute(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeDelta(net, w, 0, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssignment(t, "bootstrap", got, want)
}

// TestComputeDeltaStable: a no-churn epoch moves nothing and re-prices
// nothing — the incremental recompute is a pure cache replay.
func TestComputeDeltaStable(t *testing.T) {
	net, w := smallWorld(t, 300, 3e11, 5)
	copy(w.Rates[1], w.Rates[0])
	opts := DefaultOptions()
	opts.Seed = 5
	prev, err := Compute(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	next, err := ComputeDelta(net, w, 1, prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if next.Rescanned != 0 {
		t.Fatalf("no-churn epoch rescanned %d VIPs, want 0", next.Rescanned)
	}
	for vi := range prev.SwitchOf {
		if next.SwitchOf[vi] != prev.SwitchOf[vi] || next.TierOf[vi] != prev.TierOf[vi] {
			t.Fatalf("VIP %d moved (%d/%v → %d/%v) without churn", vi,
				prev.SwitchOf[vi], prev.TierOf[vi], next.SwitchOf[vi], next.TierOf[vi])
		}
	}
	if next.MRU != prev.MRU {
		t.Fatalf("MRU drifted %v → %v without churn", prev.MRU, next.MRU)
	}
}

// TestComputeFromWithoutCache: an assignment stripped of its incremental
// state (a follower replaying placements from a snapshot) still works as a
// computeFrom base — everything is treated as changed, homes are kept.
func TestComputeFromWithoutCache(t *testing.T) {
	net, w := smallWorld(t, 200, 2e11, 9)
	copy(w.Rates[1], w.Rates[0])
	opts := DefaultOptions()
	opts.Seed = 9
	prev, err := Compute(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	bare := &Assignment{SwitchOf: prev.SwitchOf, TierOf: prev.TierOf} // no delta cache
	next, err := computeFrom(net, w, 1, bare, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaDelta, err := ComputeDelta(net, w, 1, bare, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssignment(t, "bare base", viaDelta, next)
	for vi := range prev.SwitchOf {
		if prev.TierOf[vi] == TierHMux && next.TierOf[vi] != TierHMux {
			t.Fatalf("VIP %d lost its feasible home in a no-churn replay", vi)
		}
	}
}

// benchWorld builds the benchmark input: 30k VIPs (the paper's VIP count,
// §8.1) on the default 8-container topology. The production 40-container
// fabric pushes the from-scratch path past 2 minutes per epoch (the 240-
// candidate scan), which is the point of the incremental path but too slow
// to gate in CI — the candidate-scan ratio, not the absolute time, is what
// the gate protects.
func benchWorld(b *testing.B, numVIPs int) (*netsim.Network, *workload.Workload) {
	b.Helper()
	topo := topology.MustNew(topology.DefaultConfig())
	net := netsim.New(topo)
	cfg := workload.DefaultConfig()
	cfg.NumVIPs = numVIPs
	cfg.Epochs = 2
	cfg.Seed = 17
	w, err := workload.Generate(cfg, topo)
	if err != nil {
		b.Fatal(err)
	}
	return net, w
}

// BenchmarkComputeDelta measures the per-epoch recompute at the paper's 30k
// VIP scale: dirtypct=1 is the incremental path with 1% of VIPs churned
// (the steady-state epoch), dirtypct=100 is the full from-scratch Compute
// (the recovery path and the pre-delta baseline). They read ~8x apart
// since the scan stops at the first over-capacity link (DESIGN.md
// "Incremental assignment"); bench/'s ctl-churn workload records both points
// as assign.delta_ns_per_vip and assign.compute_ns_per_vip at 2,000 VIPs.
func BenchmarkComputeDelta(b *testing.B) {
	net, w := benchWorld(b, 30000)
	opts := DefaultOptions()
	opts.Seed = 17
	// Measure the honest per-epoch cost: no §4.1 early termination (which
	// would let the from-scratch path skip most of its candidate scans) and
	// a host-table cap above the population so placement work is O(VIPs).
	opts.ContinueOnFail = true
	opts.MaxHMuxVIPs = 32768
	prev, err := Compute(net, w, 0, opts)
	if err != nil {
		b.Fatal(err)
	}
	// Epoch 1 = epoch 0 with 1% of VIPs drifted.
	copy(w.Rates[1], w.Rates[0])
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < len(w.VIPs)/100; i++ {
		vi := rng.Intn(len(w.VIPs))
		w.Rates[1][vi] *= 1.3
	}

	b.Run("dirtypct=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			next, err := ComputeDelta(net, w, 1, prev, opts)
			if err != nil {
				b.Fatal(err)
			}
			if next.NumAssigned == 0 {
				b.Fatal("nothing assigned")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.VIPs)), "ns/vip")
	})
	b.Run("dirtypct=100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			next, err := Compute(net, w, 1, opts)
			if err != nil {
				b.Fatal(err)
			}
			if next.NumAssigned == 0 {
				b.Fatal("nothing assigned")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.VIPs)), "ns/vip")
	})
}
