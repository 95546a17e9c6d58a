package netsim

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"duet/internal/topology"
)

// refUnitVec is UnitVec as it was built before its scratch arrays: per-call
// maps of node fractions and link loads, and a sort of the map's entries.
// The reference the dense builder must match bit for bit.
func refUnitVec(n *Network, src, dst topology.SwitchID) ([]LinkFrac, error) {
	if src == dst {
		return nil, nil
	}
	if n.downSwitch[src] || n.downSwitch[dst] {
		return nil, ErrUnreachable
	}
	d := n.dist(dst)
	if d[src] < 0 {
		return nil, ErrUnreachable
	}
	frac := map[topology.SwitchID]float64{src: 1}
	order := []topology.SwitchID{src}
	loads := map[DirLink]float64{}
	for i := 0; i < len(order); i++ {
		u := order[i]
		f := frac[u]
		var next []topology.Neighbor
		for _, nb := range n.Topo.Neighbors[u] {
			if n.linkUsable(nb.Link) && d[nb.Peer] == d[u]-1 {
				next = append(next, nb)
			}
		}
		if len(next) == 0 {
			continue
		}
		share := f / float64(len(next))
		for _, nb := range next {
			loads[n.direction(nb.Link, u)] += share
			if _, seen := frac[nb.Peer]; !seen && nb.Peer != dst {
				order = append(order, nb.Peer)
			}
			if nb.Peer != dst {
				frac[nb.Peer] += share
			}
		}
	}
	out := make([]LinkFrac, 0, len(loads))
	for dir, f := range loads {
		out = append(out, LinkFrac{Dir: dir, Frac: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dir < out[j].Dir })
	return out, nil
}

// refInternetVec is InternetVec as it was built before its scratch arrays.
func refInternetVec(n *Network, dst topology.SwitchID) ([]LinkFrac, error) {
	var cores []topology.SwitchID
	for i := 0; i < n.Topo.Cfg.Cores; i++ {
		if c := n.Topo.CoreID(i); n.SwitchUp(c) && c != dst {
			cores = append(cores, c)
		}
	}
	if len(cores) == 0 {
		return nil, nil
	}
	acc := map[DirLink]float64{}
	share := 1.0 / float64(n.Topo.Cfg.Cores)
	for _, c := range cores {
		vec, err := refUnitVec(n, c, dst)
		if err != nil {
			return nil, err
		}
		for _, lf := range vec {
			acc[lf.Dir] += share * lf.Frac
		}
	}
	out := make([]LinkFrac, 0, len(acc))
	for dir, f := range acc {
		out = append(out, LinkFrac{Dir: dir, Frac: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dir < out[j].Dir })
	return out, nil
}

// TestVectorsMatchReference: every UnitVec and InternetVec equals (==, entry
// by entry) the map-based reference's, on the testbed and on a 4-container
// fabric, with no failure, a failed Agg, a failed Core and both — built
// Internet vectors first on one network and unit vectors first on another, so
// a vector built from cached core vectors and one built beside them are both
// held to it. (Failures are per switch: the simulator has no link state.)
func TestVectorsMatchReference(t *testing.T) {
	fabrics := map[string]topology.Config{
		"testbed": topology.TestbedConfig(),
		"4-container": {
			Containers: 4, ToRsPerContainer: 8, AggsPerContainer: 2, Cores: 4, ServersPerToR: 20,
		},
	}
	for name, cfg := range fabrics {
		topo := topology.MustNew(cfg)
		failures := map[string][]topology.SwitchID{
			"none":     nil,
			"agg":      {topo.AggID(0, 0)},
			"core":     {topo.CoreID(0)},
			"agg+core": {topo.AggID(1, 0), topo.CoreID(1)},
		}
		for fname, down := range failures {
			for _, inetFirst := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/inet-first=%v", name, fname, inetFirst), func(t *testing.T) {
					n := New(topo)
					for _, s := range down {
						n.FailSwitch(s)
					}
					sws := topology.SwitchID(topo.NumSwitches())
					checkInet := func() {
						for dst := range sws {
							got, err := n.internetFlow(dst)
							want, werr := refInternetVec(n, dst)
							if err != werr || !slices.Equal(got, want) {
								t.Fatalf("InternetVec(%d) = %v, %v; reference %v, %v", dst, got, err, want, werr)
							}
						}
					}
					if inetFirst {
						checkInet()
					}
					for src := range sws {
						for dst := range sws {
							got, err := n.unitFlow(src, dst)
							want, werr := refUnitVec(n, src, dst)
							if err != werr || !slices.Equal(got, want) {
								t.Fatalf("UnitVec(%d, %d) = %v, %v; reference %v, %v", src, dst, got, err, want, werr)
							}
						}
					}
					if !inetFirst {
						checkInet()
					}
				})
			}
		}
	}
}
