package assign

import (
	"testing"

	"duet/internal/netsim"
	"duet/internal/topology"
	"duet/internal/workload"
)

// tierWorld builds a small network + workload with modest DIP counts so the
// NIC tier (cost 1 + NumDIPs per VIP) can hold a meaningful population.
func tierWorld(t testing.TB, numVIPs int, seed int64) (*netsim.Network, *workload.Workload) {
	t.Helper()
	topo := topology.MustNew(topology.Config{
		Containers:       4,
		ToRsPerContainer: 8,
		AggsPerContainer: 4,
		Cores:            8,
		ServersPerToR:    20,
	})
	net := netsim.New(topo)
	w, err := workload.Generate(workload.Config{
		NumVIPs:      numVIPs,
		TotalRate:    4e11,
		Epochs:       4,
		Seed:         seed,
		TrafficSkew:  1.6,
		MaxDIPs:      20,
		InternetFrac: 0.3,
		ChurnStdDev:  0.25,
	}, topo)
	if err != nil {
		t.Fatal(err)
	}
	return net, w
}

// checkTiers asserts the TierOf/SwitchOf invariants and the NIC budget.
func checkTiers(t *testing.T, asg *Assignment, opts Options) {
	t.Helper()
	opts = opts.withDefaults()
	for vi, tier := range asg.TierOf {
		onSwitch := asg.SwitchOf[vi] != Unassigned
		if (tier == TierHMux) != onSwitch {
			t.Fatalf("VIP %d: tier %s but SwitchOf = %d", vi, tier, asg.SwitchOf[vi])
		}
	}
	if opts.NMuxTableSize > 0 {
		budget := int(float64(opts.NMuxTableSize) * nmuxHeadroom)
		if asg.NMuxEntriesUsed > budget {
			t.Fatalf("NIC entries %d exceed headroom budget %d", asg.NMuxEntriesUsed, budget)
		}
	} else if asg.NumNMux != 0 {
		t.Fatalf("NIC tier disabled but %d VIPs placed there", asg.NumNMux)
	}
	sum := asg.AssignedRate + asg.NMuxRate + asg.SMuxRate()
	if diff := sum - asg.TotalRate; diff > 1e-6*asg.TotalRate || diff < -1e-6*asg.TotalRate {
		t.Fatalf("tier rates %.0f do not sum to total %.0f", sum, asg.TotalRate)
	}
}

func TestComputeThreeTier(t *testing.T) {
	net, w := tierWorld(t, 300, 11)
	opts := DefaultOptions()
	// Starve the switch tier so the overflow exercises the NIC tier.
	opts.MaxHMuxVIPs = 40
	opts.NMuxTableSize = 2048
	asg, err := Compute(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkTiers(t, asg, opts)
	if asg.NumAssigned == 0 {
		t.Fatal("no VIPs on the switch tier")
	}
	if asg.NumNMux == 0 {
		t.Fatal("no VIPs spilled to the NIC tier")
	}
	if asg.NMuxFraction() <= 0 {
		t.Fatal("NIC tier carries no traffic")
	}

	// The NIC tier must strictly reduce the software share versus the same
	// placement without it (the ISSUE acceptance property).
	optsOff := opts
	optsOff.NMuxTableSize = 0
	off, err := Compute(net, w, 0, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	checkTiers(t, off, optsOff)
	if asg.SMuxFraction() >= off.SMuxFraction() {
		t.Fatalf("SMux share %.3f with NIC tier, want < %.3f without it",
			asg.SMuxFraction(), off.SMuxFraction())
	}
}

func TestComputeStickyCarriesTiers(t *testing.T) {
	net, w := tierWorld(t, 300, 12)
	opts := DefaultOptions()
	opts.MaxHMuxVIPs = 40
	opts.NMuxTableSize = 2048
	prev, err := Compute(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	next, err := ComputeSticky(net, w, 1, prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkTiers(t, next, opts)
	if next.NumNMux == 0 {
		t.Fatal("sticky round lost the NIC tier")
	}
}

func TestRevalidateLegacyPlacementUnchanged(t *testing.T) {
	// Revalidate re-admits switch homes only: a VIP that no longer fits
	// goes straight to the SMuxes, never to the NIC tier.
	net, w := tierWorld(t, 200, 15)
	opts := DefaultOptions()
	prev, err := Compute(net, w, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Revalidate(net, w, 2, prev.SwitchOf, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkTiers(t, re, opts)
	for vi, tier := range re.TierOf {
		if tier == TierNMux {
			t.Fatalf("VIP %d on NIC tier without NMuxTableSize", vi)
		}
	}
}
