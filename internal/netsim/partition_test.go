package netsim

// Partition and heal edge cases: what the simulator must get right when
// failures split the fabric and when repairs arrive in awkward orders. The
// TIP scenario models §5.2's two-hop indirection at the flow level — client
// traffic lands on the TIP's home switch (hop 1), which re-encapsulates
// toward the DIP's rack (hop 2) — with the blackhole arriving between the
// hops, as it does in practice when a switch dies with traffic in flight.

import (
	"math"
	"testing"

	"duet/internal/topology"
)

// vecEqual compares two flow vectors exactly (same links, same fractions).
func vecEqual(a, b []LinkFrac) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dir != b[i].Dir || math.Abs(a[i].Frac-b[i].Frac) > 1e-12 {
			return false
		}
	}
	return true
}

// TestPartitionIsolatesContainer fails every Agg in container 0: its ToRs
// can reach nothing (not even each other — ToRs only connect through Aggs),
// while the rest of the fabric keeps routing normally.
func TestPartitionIsolatesContainer(t *testing.T) {
	n := defaultNet(t)
	cfg := n.Topo.Cfg
	for j := 0; j < cfg.AggsPerContainer; j++ {
		n.FailSwitch(n.Topo.AggID(0, j))
	}

	src := n.Topo.TorID(0, 0)
	if _, err := n.unitFlow(src, n.Topo.TorID(1, 0)); err != ErrUnreachable {
		t.Fatalf("cross-container flow out of partition: err = %v, want ErrUnreachable", err)
	}
	if _, err := n.unitFlow(src, n.Topo.TorID(0, 1)); err != ErrUnreachable {
		t.Fatalf("intra-container flow across dead Aggs: err = %v, want ErrUnreachable", err)
	}
	if _, err := n.unitFlow(src, n.Topo.CoreID(0)); err != ErrUnreachable {
		t.Fatalf("flow to core from partition: err = %v, want ErrUnreachable", err)
	}
	// The rest of the fabric is unaffected.
	vec, err := n.unitFlow(n.Topo.TorID(1, 0), n.Topo.TorID(2, 0))
	if err != nil {
		t.Fatalf("flow outside the partition failed: %v", err)
	}
	if got := intoDst(n, vec, n.Topo.TorID(2, 0)); math.Abs(got-1) > 1e-9 {
		t.Fatalf("conservation outside partition: %v", got)
	}
}

// TestBlackholeDuringTIPHop stages the two TIP hops and kills the TIP's
// home switch between them: hop 1 was routable when the packet left the
// client, hop 2 must fail (the re-encapsulating switch is gone), and after
// recovery the full two-hop path works again.
func TestBlackholeDuringTIPHop(t *testing.T) {
	n := defaultNet(t)
	client := n.Topo.TorID(0, 0)
	tipHome := n.Topo.AggID(1, 0) // TIP partition lives on an Agg (§5.2)
	dipRack := n.Topo.TorID(2, 3)

	hop1, err := n.unitFlow(client, tipHome)
	if err != nil {
		t.Fatalf("hop 1 before failure: %v", err)
	}
	if got := intoDst(n, hop1, tipHome); math.Abs(got-1) > 1e-9 {
		t.Fatalf("hop 1 conservation: %v", got)
	}
	epochBefore := n.Epoch()

	// The switch dies with the packet "between" hops.
	n.FailSwitch(tipHome)
	if n.Epoch() == epochBefore {
		t.Fatal("failure did not bump the epoch — stale hop-1 vectors would survive")
	}
	if _, err := n.unitFlow(tipHome, dipRack); err != ErrUnreachable {
		t.Fatalf("hop 2 from dead TIP home: err = %v, want ErrUnreachable", err)
	}
	// Recomputing hop 1 now also fails: the fabric no longer routes toward
	// the dead switch, which is exactly the Fig-12 blackhole window.
	if _, err := n.unitFlow(client, tipHome); err != ErrUnreachable {
		t.Fatalf("hop 1 to dead TIP home: err = %v, want ErrUnreachable", err)
	}

	// Heal: both hops route again and conserve flow.
	n.RecoverSwitch(tipHome)
	hop1b, err := n.unitFlow(client, tipHome)
	if err != nil {
		t.Fatalf("hop 1 after heal: %v", err)
	}
	if !vecEqual(hop1, hop1b) {
		t.Fatal("hop 1 after heal differs from before the failure")
	}
	hop2, err := n.unitFlow(tipHome, dipRack)
	if err != nil {
		t.Fatalf("hop 2 after heal: %v", err)
	}
	if got := intoDst(n, hop2, dipRack); math.Abs(got-1) > 1e-9 {
		t.Fatalf("hop 2 conservation after heal: %v", got)
	}
}

// TestHealOrdering breaks two Aggs of the source's container, then heals
// them in both orders: every intermediate state must route correctly for
// what is up, and the fully healed fabric must reproduce the pre-failure
// vector exactly.
func TestHealOrdering(t *testing.T) {
	n := defaultNet(t)
	src := n.Topo.TorID(0, 0)
	dst := n.Topo.TorID(1, 0)
	baseline, err := n.unitFlow(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	aggs := [2]topology.SwitchID{n.Topo.AggID(0, 0), n.Topo.AggID(0, 1)}
	avoids := func(vec []LinkFrac, down ...topology.SwitchID) bool {
		for _, lf := range vec {
			l := n.Topo.Link(lf.Dir.LinkOf())
			for _, s := range down {
				if l.A == s || l.B == s {
					return false
				}
			}
		}
		return true
	}

	for first := range aggs {
		n.FailSwitch(aggs[0])
		n.FailSwitch(aggs[1])

		// Both down: the flow still conserves over the remaining uplinks.
		vec, err := n.unitFlow(src, dst)
		if err != nil {
			t.Fatalf("[heal %d first] flow with both failures: %v", first, err)
		}
		if got := intoDst(n, vec, dst); math.Abs(got-1) > 1e-9 {
			t.Fatalf("[heal %d first] conservation with both failures: %v", first, got)
		}
		if !avoids(vec, aggs[0], aggs[1]) {
			t.Fatalf("[heal %d first] flow touched a failed switch", first)
		}

		// Heal one; the partial state must still avoid the one that remains
		// down.
		n.RecoverSwitch(aggs[first])
		mid, err := n.unitFlow(src, dst)
		if err != nil {
			t.Fatalf("[heal %d first] flow after partial heal: %v", first, err)
		}
		if !avoids(mid, aggs[1-first]) {
			t.Fatalf("[heal %d first] partial heal used the still-failed switch", first)
		}
		n.RecoverSwitch(aggs[1-first])

		healed, err := n.unitFlow(src, dst)
		if err != nil {
			t.Fatalf("[heal %d first] flow after full heal: %v", first, err)
		}
		if !vecEqual(baseline, healed) {
			t.Fatalf("[heal %d first] fully healed vector differs from baseline", first)
		}
	}
}

// TestInternetFlowDuringPartialCoreFailure checks ingress behavior while
// some cores are down and after heal: the live-core share must still sum to
// (live cores / all cores), the §8.5 blast-radius property, and healing
// restores full ingress.
func TestInternetFlowDuringPartialCoreFailure(t *testing.T) {
	n := defaultNet(t)
	dst := n.Topo.TorID(0, 0)
	cores := n.Topo.Cfg.Cores

	n.FailSwitch(n.Topo.CoreID(0))
	vec, err := n.internetFlow(dst)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cores-1) / float64(cores)
	if got := intoDst(n, vec, dst); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ingress with one core down = %v, want %v", got, want)
	}

	n.RecoverSwitch(n.Topo.CoreID(0))
	vec, err = n.internetFlow(dst)
	if err != nil {
		t.Fatal(err)
	}
	if got := intoDst(n, vec, dst); math.Abs(got-1) > 1e-9 {
		t.Fatalf("ingress after heal = %v, want 1", got)
	}
}
