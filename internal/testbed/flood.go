package testbed

// The event-driven testbed in this package models latency statistically.
// The flood harness complements it with a byte-accurate concurrent driver:
// a real core.Cluster wired on the same small FatTree as the paper's
// hardware testbed (§7, Figure 10), flooded through the parallel
// DeliverBatch read path. The testbed tests, the figures and bench/ build
// their in-process clusters with it.

import (
	"fmt"
	"time"

	"duet/internal/clock"
	"duet/internal/core"
	"duet/internal/obs"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/topology"
)

// Flood is a byte-accurate cluster plus the VIP population it serves.
type Flood struct {
	Cluster *core.Cluster
	VIPs    []packet.Addr
}

// FloodConfig sizes the harness.
type FloodConfig struct {
	NumVIPs    int // default 8
	DIPsPerVIP int // default 4
	NumSMuxes  int // default 3, as on the paper's testbed
	// HMuxFraction of the VIPs (from the front of the list) is assigned to
	// HMuxes round-robin across Agg and Core switches; the rest stay on the
	// SMux backstop. Default 0.75 — Duet's steady state serves almost all
	// traffic in hardware (§7.1). Negative keeps every VIP on the SMux tier
	// (steer-mode benches want all traffic through the software path).
	HMuxFraction float64
	// SMuxCapacityPPS overrides each SMux's capacity (zero = the §2.2
	// production 300K pps). Watchdog tests shrink it so a modest flood
	// crosses the headroom threshold deterministically.
	SMuxCapacityPPS float64
	// NMuxTableSize enables the NIC match-table tier with the given per-host
	// capacity. Zero leaves the tier off, preserving the two-tier harness.
	NMuxTableSize int
	// NMuxFraction of the VIPs (taken after the HMux slice) is assigned to
	// the NIC tier. Only meaningful when NMuxTableSize > 0.
	NMuxFraction float64
	// SMuxMode is the consistency mode every VIP starts in (stateful /
	// stateless / hybrid, see internal/steer). Zero value is stateful, the
	// legacy behavior.
	SMuxMode steer.Mode
}

// NewFlood builds a cluster on the Figure-10 testbed topology and populates
// it with VIPs.
func NewFlood(cfg FloodConfig) (*Flood, error) {
	if cfg.NumVIPs <= 0 {
		cfg.NumVIPs = 8
	}
	if cfg.DIPsPerVIP <= 0 {
		cfg.DIPsPerVIP = 4
	}
	if cfg.NumSMuxes <= 0 {
		cfg.NumSMuxes = 3
	}
	if cfg.HMuxFraction == 0 {
		cfg.HMuxFraction = 0.75
	}
	c, err := core.New(core.Config{
		Topology:        topology.TestbedConfig(),
		NumSMuxes:       cfg.NumSMuxes,
		Aggregate:       packet.MustParsePrefix("10.0.0.0/8"),
		SMuxCapacityPPS: cfg.SMuxCapacityPPS,
		NMuxTableSize:   cfg.NMuxTableSize,
		SMuxMode:        cfg.SMuxMode,
	})
	if err != nil {
		return nil, err
	}
	f := &Flood{Cluster: c}

	// Candidate homes: every Agg and Core switch (ToRs front the servers).
	var homes []topology.SwitchID
	for _, sw := range c.Topo.Switches {
		if sw.Kind == topology.Agg || sw.Kind == topology.Core {
			homes = append(homes, sw.ID)
		}
	}

	nHMux := int(float64(cfg.NumVIPs) * cfg.HMuxFraction)
	nNMux := 0
	if cfg.NMuxTableSize > 0 {
		nNMux = int(float64(cfg.NumVIPs) * cfg.NMuxFraction)
	}
	ts := make([]core.Target, cfg.NumVIPs)
	for i := range ts {
		addr := packet.AddrFrom4(10, 0, byte(i>>8), byte(i&0xff)+1)
		bs := make([]service.Backend, cfg.DIPsPerVIP)
		for j := 0; j < cfg.DIPsPerVIP; j++ {
			bs[j] = service.Backend{Addr: packet.AddrFrom4(100, byte(i), byte(j), 1), Weight: 1}
		}
		ts[i] = core.Target{Addr: addr, VIP: &service.VIP{Addr: addr, Backends: bs}}
		switch {
		case i < nHMux:
			ts[i].Switches = []topology.SwitchID{homes[i%len(homes)]}
		case i < nHMux+nNMux:
			ts[i].NIC = true
		}
		f.VIPs = append(f.VIPs, addr)
	}
	if err := c.Place(ts...); err != nil {
		return nil, fmt.Errorf("flood: place: %w", err)
	}
	return f, nil
}

// Packets builds n client packets, cycling flows over the VIP population so
// both the HMux and SMux paths are exercised and connection tables see a
// realistic mix of new and repeated flows.
func (f *Flood) Packets(n int) [][]byte {
	pkts := make([][]byte, n)
	for i := 0; i < n; i++ {
		seq := uint32(i)
		pkts[i] = packet.BuildTCP(packet.FiveTuple{
			Src:     packet.AddrFrom4(30, byte(seq>>16), byte(seq>>8), byte(seq)),
			Dst:     f.VIPs[i%len(f.VIPs)],
			SrcPort: uint16(1024 + seq%50000),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}, packet.TCPSyn, nil)
	}
	return pkts
}

// Observe wires an observability pipeline over the flood cluster: the
// cluster's registry and flight recorder, its Collect gauge hook, and the
// paper-grounded default watchdogs. now is the scrape clock, and becomes the
// recorder's too, so the cluster times its hops on the clock the watchdogs
// judge them by (inject a virtual clock for deterministic watchdog tests; nil
// leaves both on wall time).
func (f *Flood) Observe(windows int, now func() float64) *obs.Pipeline {
	reg, rec := f.Cluster.Telemetry()
	rec.SetClock(now)
	p := obs.New(obs.Config{Registry: reg, Recorder: rec, Windows: windows, Now: now})
	p.AddCollector(f.Cluster.Collect)
	p.AddRules(obs.DefaultRules(obs.DefaultSLO())...)
	return p
}

// InjectBlackhole models the Figure 12 failover outage for an HMux-served
// VIP: its home switch stops (core.StopSwitch), but the fabric still carries
// the /32 toward the dead switch until routing converges, so deliveries
// blackhole until Heal.
func (f *Flood) InjectBlackhole(vip packet.Addr) error {
	sw, ok := f.Cluster.HomeOf(vip)
	if !ok {
		return fmt.Errorf("flood: VIP %s is not HMux-served", vip)
	}
	f.Cluster.StopSwitch(sw)
	return nil
}

// Heal completes the failover (core.FailSwitch): the dead switch's routes are
// withdrawn, so the VIP's traffic reaches the SMux backstop again. A VIP that
// is not blackholed has nothing stale to withdraw.
func (f *Flood) Heal(vip packet.Addr) {
	if sw, ok := f.Cluster.HomeOf(vip); ok && !f.Cluster.SwitchUp(sw) {
		f.Cluster.FailSwitch(sw)
	}
}

// FloodStats summarizes one flood run.
type FloodStats struct {
	Delivered int
	Failed    int
	Elapsed   time.Duration
	PPS       float64
}

// Run floods the cluster through core.DeliverBatch and reports aggregate
// throughput.
func (f *Flood) Run(pkts [][]byte, workers int) FloodStats {
	wall := clock.Wall()
	results := f.Cluster.DeliverBatch(pkts, workers)
	elapsed := time.Duration(wall() * float64(time.Second))
	st := FloodStats{Elapsed: elapsed}
	for _, r := range results {
		if r.Err != nil {
			st.Failed++
		} else {
			st.Delivered++
		}
	}
	if elapsed > 0 {
		st.PPS = float64(len(pkts)) / elapsed.Seconds()
	}
	return st
}
