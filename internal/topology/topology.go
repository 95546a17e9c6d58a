// Package topology builds the container-based FatTree datacenter fabric the
// Duet evaluation runs on (paper §8.1): containers each holding a layer of
// ToR switches and a layer of Agg switches, joined by a Core layer, with
// servers attached to ToRs. Link capacities default to the paper's values
// (10 Gbps ToR↔Agg, 40 Gbps Agg↔Core).
//
// The package is purely structural: switches, links, adjacency and failure
// domains. Path computation and utilization accounting live in
// internal/netsim.
package topology

import "fmt"

// Kind classifies a switch by its layer in the fabric.
type Kind uint8

const (
	// ToR is a top-of-rack switch; servers attach here.
	ToR Kind = iota
	// Agg is a container aggregation switch.
	Agg
	// Core is a core switch joining containers.
	Core
)

// String returns the layer name.
func (k Kind) String() string {
	switch k {
	case ToR:
		return "ToR"
	case Agg:
		return "Agg"
	case Core:
		return "Core"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// SwitchID identifies a switch; IDs are dense indices into Topology.Switches.
type SwitchID int32

// LinkID identifies a (bidirectional) link; dense indices into Topology.Links.
type LinkID int32

// Gbps converts gigabits/second to the bits/second used throughout.
func Gbps(g float64) float64 { return g * 1e9 }

// Switch is one fabric switch.
type Switch struct {
	ID        SwitchID
	Kind      Kind
	Container int // -1 for Core switches
	Index     int // index within its layer (and container, for ToR/Agg)
	Name      string
}

// Link is a bidirectional fabric link. Utilization is tracked per direction
// by internal/netsim; the topology stores one record per physical link.
type Link struct {
	ID       LinkID
	A, B     SwitchID
	Capacity float64 // bits per second, per direction
}

// Config sizes the fabric. The zero value is unusable; use DefaultConfig,
// TestbedConfig or ProductionConfig as starting points.
type Config struct {
	Containers       int
	ToRsPerContainer int
	AggsPerContainer int
	Cores            int // must be a multiple of AggsPerContainer
	ServersPerToR    int

	ToRAggCapacity  float64 // bps, default 10G
	AggCoreCapacity float64 // bps, default 40G
}

// DefaultConfig is the scaled-down fabric used by tests and the default
// simulation runs: large enough to show the paper's effects, small enough to
// assign tens of thousands of VIPs in seconds.
func DefaultConfig() Config {
	return Config{
		Containers:       8,
		ToRsPerContainer: 16,
		AggsPerContainer: 4,
		Cores:            16,
		ServersPerToR:    40,
		ToRAggCapacity:   Gbps(10),
		AggCoreCapacity:  Gbps(40),
	}
}

// ProductionConfig mirrors the paper's simulated production DC: 40 containers
// of 40 ToRs + 4 Aggs, 40 Cores, 50k servers (§8.1).
func ProductionConfig() Config {
	return Config{
		Containers:       40,
		ToRsPerContainer: 40,
		AggsPerContainer: 4,
		Cores:            40,
		ServersPerToR:    32, // 40*40*32 ≈ 51k servers
		ToRAggCapacity:   Gbps(10),
		AggCoreCapacity:  Gbps(40),
	}
}

// TestbedConfig mirrors the paper's 10-switch testbed (Figure 10): two
// containers of two ToRs and two Aggs each, two Cores.
func TestbedConfig() Config {
	return Config{
		Containers:       2,
		ToRsPerContainer: 2,
		AggsPerContainer: 2,
		Cores:            2,
		ServersPerToR:    15,
		ToRAggCapacity:   Gbps(10),
		AggCoreCapacity:  Gbps(10),
	}
}

// Topology is the built fabric.
type Topology struct {
	Cfg      Config
	Switches []Switch
	Links    []Link

	// Neighbors[s] lists (peer, link) pairs for switch s.
	Neighbors [][]Neighbor

	torBase, aggBase, coreBase SwitchID
}

// Neighbor is one adjacency entry.
type Neighbor struct {
	Peer SwitchID
	Link LinkID
}

// New builds the fabric described by cfg.
func New(cfg Config) (*Topology, error) {
	if cfg.Containers <= 0 || cfg.ToRsPerContainer <= 0 || cfg.AggsPerContainer <= 0 || cfg.Cores <= 0 {
		return nil, fmt.Errorf("topology: all layer sizes must be positive: %+v", cfg)
	}
	if cfg.Cores%cfg.AggsPerContainer != 0 {
		return nil, fmt.Errorf("topology: Cores (%d) must be a multiple of AggsPerContainer (%d)",
			cfg.Cores, cfg.AggsPerContainer)
	}
	if cfg.ToRAggCapacity <= 0 {
		cfg.ToRAggCapacity = Gbps(10)
	}
	if cfg.AggCoreCapacity <= 0 {
		cfg.AggCoreCapacity = Gbps(40)
	}
	if cfg.ServersPerToR <= 0 {
		cfg.ServersPerToR = 40
	}

	t := &Topology{Cfg: cfg}
	nTor := cfg.Containers * cfg.ToRsPerContainer
	nAgg := cfg.Containers * cfg.AggsPerContainer
	t.torBase = 0
	t.aggBase = SwitchID(nTor)
	t.coreBase = SwitchID(nTor + nAgg)
	total := nTor + nAgg + cfg.Cores
	t.Switches = make([]Switch, 0, total)

	for c := 0; c < cfg.Containers; c++ {
		for i := 0; i < cfg.ToRsPerContainer; i++ {
			id := SwitchID(len(t.Switches))
			t.Switches = append(t.Switches, Switch{
				ID: id, Kind: ToR, Container: c, Index: i,
				Name: fmt.Sprintf("tor-%d-%d", c, i),
			})
		}
	}
	for c := 0; c < cfg.Containers; c++ {
		for i := 0; i < cfg.AggsPerContainer; i++ {
			id := SwitchID(len(t.Switches))
			t.Switches = append(t.Switches, Switch{
				ID: id, Kind: Agg, Container: c, Index: i,
				Name: fmt.Sprintf("agg-%d-%d", c, i),
			})
		}
	}
	for i := 0; i < cfg.Cores; i++ {
		id := SwitchID(len(t.Switches))
		t.Switches = append(t.Switches, Switch{
			ID: id, Kind: Core, Container: -1, Index: i,
			Name: fmt.Sprintf("core-%d", i),
		})
	}

	t.Neighbors = make([][]Neighbor, len(t.Switches))
	addLink := func(a, b SwitchID, cap float64) {
		id := LinkID(len(t.Links))
		t.Links = append(t.Links, Link{ID: id, A: a, B: b, Capacity: cap})
		t.Neighbors[a] = append(t.Neighbors[a], Neighbor{Peer: b, Link: id})
		t.Neighbors[b] = append(t.Neighbors[b], Neighbor{Peer: a, Link: id})
	}

	// Every ToR connects to every Agg in its container.
	for c := 0; c < cfg.Containers; c++ {
		for i := 0; i < cfg.ToRsPerContainer; i++ {
			for j := 0; j < cfg.AggsPerContainer; j++ {
				addLink(t.TorID(c, i), t.AggID(c, j), cfg.ToRAggCapacity)
			}
		}
	}
	// Agg j of every container connects to core stripe j: cores
	// [j*stride, (j+1)*stride). This is the standard fat-tree striping; it
	// guarantees every container pair has AggsPerContainer*stride disjoint
	// core paths.
	stride := cfg.Cores / cfg.AggsPerContainer
	for c := 0; c < cfg.Containers; c++ {
		for j := 0; j < cfg.AggsPerContainer; j++ {
			for k := 0; k < stride; k++ {
				addLink(t.AggID(c, j), t.CoreID(j*stride+k), cfg.AggCoreCapacity)
			}
		}
	}
	return t, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Topology {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// TorID returns the switch ID of ToR i in container c.
func (t *Topology) TorID(c, i int) SwitchID {
	return t.torBase + SwitchID(c*t.Cfg.ToRsPerContainer+i)
}

// AggID returns the switch ID of Agg j in container c.
func (t *Topology) AggID(c, j int) SwitchID {
	return t.aggBase + SwitchID(c*t.Cfg.AggsPerContainer+j)
}

// CoreID returns the switch ID of core switch i.
func (t *Topology) CoreID(i int) SwitchID { return t.coreBase + SwitchID(i) }

// NumSwitches returns the total switch count.
func (t *Topology) NumSwitches() int { return len(t.Switches) }

// NumLinks returns the total link count.
func (t *Topology) NumLinks() int { return len(t.Links) }

// NumRacks returns the number of racks (== ToR switches).
func (t *Topology) NumRacks() int { return t.Cfg.Containers * t.Cfg.ToRsPerContainer }

// Rack converts a rack index (0..NumRacks-1) to its ToR switch ID.
func (t *Topology) Rack(r int) SwitchID { return t.torBase + SwitchID(r) }

// ContainerSwitches returns all switch IDs inside container c (ToRs + Aggs).
func (t *Topology) ContainerSwitches(c int) []SwitchID {
	out := make([]SwitchID, 0, t.Cfg.ToRsPerContainer+t.Cfg.AggsPerContainer)
	for i := 0; i < t.Cfg.ToRsPerContainer; i++ {
		out = append(out, t.TorID(c, i))
	}
	for j := 0; j < t.Cfg.AggsPerContainer; j++ {
		out = append(out, t.AggID(c, j))
	}
	return out
}

// Switch returns the switch record for id.
//
//duet:hotpath
func (t *Topology) Switch(id SwitchID) Switch { return t.Switches[id] }

// Link returns the link record for id.
func (t *Topology) Link(id LinkID) Link { return t.Links[id] }
