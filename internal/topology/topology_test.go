package topology

import (
	"testing"
	"testing/quick"
)

func TestNewCounts(t *testing.T) {
	cfg := DefaultConfig()
	top := MustNew(cfg)

	wantSwitches := cfg.Containers*(cfg.ToRsPerContainer+cfg.AggsPerContainer) + cfg.Cores
	if top.NumSwitches() != wantSwitches {
		t.Fatalf("switches = %d, want %d", top.NumSwitches(), wantSwitches)
	}
	wantLinks := cfg.Containers*cfg.ToRsPerContainer*cfg.AggsPerContainer +
		cfg.Containers*cfg.Cores // every Agg layer collectively reaches every core once per container
	if top.NumLinks() != wantLinks {
		t.Fatalf("links = %d, want %d", top.NumLinks(), wantLinks)
	}
	if top.NumRacks() != cfg.Containers*cfg.ToRsPerContainer {
		t.Fatalf("racks = %d", top.NumRacks())
	}
}

func TestTestbedMirrorsPaperFigure10(t *testing.T) {
	top := MustNew(TestbedConfig())
	// Figure 10: 10 Broadcom switches — 4 ToR, 4 Agg, 2 Core.
	if top.NumSwitches() != 10 {
		t.Fatalf("testbed switches = %d, want 10", top.NumSwitches())
	}
	var tors, aggs, cores int
	for _, s := range top.Switches {
		switch s.Kind {
		case ToR:
			tors++
		case Agg:
			aggs++
		case Core:
			cores++
		}
	}
	if tors != 4 || aggs != 4 || cores != 2 {
		t.Fatalf("layers = %d/%d/%d, want 4/4/2", tors, aggs, cores)
	}
}

func TestIDsRoundTrip(t *testing.T) {
	top := MustNew(DefaultConfig())
	cfg := top.Cfg
	for c := 0; c < cfg.Containers; c++ {
		for i := 0; i < cfg.ToRsPerContainer; i++ {
			id := top.TorID(c, i)
			sw := top.Switch(id)
			if sw.Kind != ToR || sw.Container != c || sw.Index != i {
				t.Fatalf("TorID(%d,%d) → %+v", c, i, sw)
			}
			if r := c*cfg.ToRsPerContainer + i; top.Rack(r) != id {
				t.Fatalf("rack %d is %v, want %v", r, top.Rack(r), id)
			}
		}
		for j := 0; j < cfg.AggsPerContainer; j++ {
			sw := top.Switch(top.AggID(c, j))
			if sw.Kind != Agg || sw.Container != c || sw.Index != j {
				t.Fatalf("AggID(%d,%d) → %+v", c, j, sw)
			}
		}
	}
	for i := 0; i < cfg.Cores; i++ {
		sw := top.Switch(top.CoreID(i))
		if sw.Kind != Core || sw.Container != -1 || sw.Index != i {
			t.Fatalf("CoreID(%d) → %+v", i, sw)
		}
	}
}

func TestConnectivity(t *testing.T) {
	top := MustNew(DefaultConfig())
	cfg := top.Cfg

	// Every ToR has exactly AggsPerContainer neighbors, all Aggs in its container.
	for c := 0; c < cfg.Containers; c++ {
		for i := 0; i < cfg.ToRsPerContainer; i++ {
			nbrs := top.Neighbors[top.TorID(c, i)]
			if len(nbrs) != cfg.AggsPerContainer {
				t.Fatalf("ToR %d-%d has %d neighbors", c, i, len(nbrs))
			}
			for _, nb := range nbrs {
				sw := top.Switch(nb.Peer)
				if sw.Kind != Agg || sw.Container != c {
					t.Fatalf("ToR %d-%d neighbor %+v is not a same-container Agg", c, i, sw)
				}
			}
		}
	}

	// Every Agg connects to all ToRs in its container plus its core stripe.
	stride := cfg.Cores / cfg.AggsPerContainer
	for c := 0; c < cfg.Containers; c++ {
		for j := 0; j < cfg.AggsPerContainer; j++ {
			nbrs := top.Neighbors[top.AggID(c, j)]
			if len(nbrs) != cfg.ToRsPerContainer+stride {
				t.Fatalf("Agg %d-%d has %d neighbors, want %d", c, j, len(nbrs), cfg.ToRsPerContainer+stride)
			}
			cores := 0
			for _, nb := range nbrs {
				if sw := top.Switch(nb.Peer); sw.Kind == Core {
					cores++
					if sw.Index/stride != j {
						t.Fatalf("Agg stripe violation: agg %d connected to core %d", j, sw.Index)
					}
				}
			}
			if cores != stride {
				t.Fatalf("Agg %d-%d reaches %d cores, want %d", c, j, cores, stride)
			}
		}
	}

	// Every core reaches exactly one Agg per container.
	for i := 0; i < cfg.Cores; i++ {
		nbrs := top.Neighbors[top.CoreID(i)]
		if len(nbrs) != cfg.Containers {
			t.Fatalf("core %d has %d neighbors, want %d", i, len(nbrs), cfg.Containers)
		}
		seen := make(map[int]bool)
		for _, nb := range nbrs {
			sw := top.Switch(nb.Peer)
			if sw.Kind != Agg {
				t.Fatalf("core neighbor is %v", sw.Kind)
			}
			if seen[sw.Container] {
				t.Fatalf("core %d reaches container %d twice", i, sw.Container)
			}
			seen[sw.Container] = true
		}
	}
}

func TestLinkCapacities(t *testing.T) {
	top := MustNew(DefaultConfig())
	for _, l := range top.Links {
		a, b := top.Switch(l.A), top.Switch(l.B)
		switch {
		case a.Kind == ToR || b.Kind == ToR:
			if l.Capacity != Gbps(10) {
				t.Fatalf("ToR link capacity %v", l.Capacity)
			}
		case a.Kind == Core || b.Kind == Core:
			if l.Capacity != Gbps(40) {
				t.Fatalf("Core link capacity %v", l.Capacity)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Containers: 1, ToRsPerContainer: 1, AggsPerContainer: 2, Cores: 3}, // cores not multiple of aggs
		{Containers: 0, ToRsPerContainer: 1, AggsPerContainer: 1, Cores: 1},
		{Containers: 1, ToRsPerContainer: -1, AggsPerContainer: 1, Cores: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	top := MustNew(Config{Containers: 1, ToRsPerContainer: 1, AggsPerContainer: 1, Cores: 1})
	if top.Cfg.ToRAggCapacity != Gbps(10) || top.Cfg.AggCoreCapacity != Gbps(40) {
		t.Fatal("capacity defaults not applied")
	}
	if top.Cfg.ServersPerToR != 40 {
		t.Fatal("ServersPerToR default not applied")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestContainerSwitches(t *testing.T) {
	top := MustNew(TestbedConfig())
	sws := top.ContainerSwitches(1)
	if len(sws) != 4 {
		t.Fatalf("container 1 has %d switches, want 4", len(sws))
	}
	for _, s := range sws {
		if top.Switch(s).Container != 1 {
			t.Fatalf("switch %v reported outside container 1", s)
		}
	}
}

// Property: all switch IDs are dense, every link references valid endpoints
// of adjacent layers, and adjacency is symmetric.
func TestTopologyInvariants(t *testing.T) {
	f := func(cRaw, tRaw, aRaw uint8) bool {
		cfg := Config{
			Containers:       1 + int(cRaw%6),
			ToRsPerContainer: 1 + int(tRaw%8),
			AggsPerContainer: 1 + int(aRaw%4),
		}
		cfg.Cores = cfg.AggsPerContainer * (1 + int(cRaw%3))
		top, err := New(cfg)
		if err != nil {
			return false
		}
		for id, sw := range top.Switches {
			if sw.ID != SwitchID(id) {
				return false
			}
		}
		for _, l := range top.Links {
			ka, kb := top.Switch(l.A).Kind, top.Switch(l.B).Kind
			ok := (ka == ToR && kb == Agg) || (ka == Agg && kb == ToR) ||
				(ka == Agg && kb == Core) || (ka == Core && kb == Agg)
			if !ok {
				return false
			}
		}
		// Adjacency symmetric.
		for s, nbrs := range top.Neighbors {
			for _, nb := range nbrs {
				found := false
				for _, back := range top.Neighbors[nb.Peer] {
					if back.Peer == SwitchID(s) && back.Link == nb.Link {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
