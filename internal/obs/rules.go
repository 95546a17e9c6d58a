package obs

// The SLO watchdog engine: declarative rules over the scraped series,
// evaluated once per tick. A rule reads the latest point of one or two
// series (value, delta, or rate), combines them (alone, ratio, difference),
// compares against a threshold, and fires after For consecutive breaching
// ticks. Transitions — firing and resolving — are appended to a fixed alert
// ring and recorded as KindSLOAlert flight-recorder events; steady state
// (no transition) allocates nothing.
//
// The default rules encode the conditions Duet's evaluation measures:
// delivery availability through failure and migration (Figure 12), SMux
// capacity headroom and latency inflation against the latmodel envelope
// (Figure 1, §2.2), and HMux table occupancy against the 16K/4K/512 switch
// limits (§4.1).

import (
	"duet/internal/latmodel"
	"duet/internal/telemetry"
)

// Source selects which component of a series' latest point a rule reads.
type Source uint8

const (
	// Value is the instantaneous scraped value.
	Value Source = iota
	// Delta is the change since the previous tick.
	Delta
	// Rate is Delta divided by the tick interval.
	Rate
)

// Combine joins a rule's numerator and denominator.
type Combine uint8

const (
	// One evaluates the numerator alone.
	One Combine = iota
	// Ratio evaluates num/den (the rule is skipped when den is 0).
	Ratio
)

// Op is the comparison direction.
type Op uint8

const (
	// Above breaches when the combined value exceeds the threshold.
	Above Op = iota
	// Below breaches when the combined value is under the threshold.
	Below
)

// Rule is one declarative SLO watchdog. A rule whose series do not (yet)
// exist is skipped — and its streak reset — until they appear, so rules can
// be installed before the components that emit the metrics.
type Rule struct {
	Name      string // stable identifier, also the alert label
	Desc      string // human explanation, carried on alerts
	Num       string // numerator series name
	NumSrc    Source
	Combine   Combine
	Den       string // denominator series name (Ratio only)
	DenSrc    Source
	Op        Op
	Threshold float64
	For       int // consecutive breaching ticks before firing (min 1)
}

// ruleState is a rule plus its evaluation state. num/den cache the resolved
// series and are invalidated when the series list is rebuilt.
type ruleState struct {
	Rule
	idx      int
	num, den *series
	streak   int
	firing   bool
	lastVal  float64
	lastOK   bool
}

// Alert is one watchdog transition.
type Alert struct {
	Time      float64 `json:"time"`
	Rule      string  `json:"rule"`
	Firing    bool    `json:"firing"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Desc      string  `json:"desc,omitempty"`
}

// AddRules installs watchdogs. Rules are evaluated in installation order on
// every subsequent tick.
func (p *Pipeline) AddRules(rules ...Rule) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range rules {
		if r.For < 1 {
			r.For = 1
		}
		p.rules = append(p.rules, &ruleState{Rule: r, idx: len(p.rules)})
	}
}

// sourceVal reads one component of a series' latest point.
func sourceVal(s *series, src Source) (float64, bool) {
	if s == nil || s.n == 0 {
		return 0, false
	}
	pt := s.last()
	switch src {
	case Delta:
		return pt.Delta, true
	case Rate:
		return pt.Rate, true
	default:
		return pt.Value, true
	}
}

// evalLocked computes the rule's combined value. ok is false when a series
// is missing, empty, or a Ratio denominator is zero.
func (rs *ruleState) evalLocked(p *Pipeline) (float64, bool) {
	if rs.num == nil {
		rs.num = p.byName[rs.Num]
	}
	num, ok := sourceVal(rs.num, rs.NumSrc)
	if !ok {
		return 0, false
	}
	if rs.Combine == One {
		return num, true
	}
	if rs.den == nil {
		rs.den = p.byName[rs.Den]
	}
	den, ok := sourceVal(rs.den, rs.DenSrc)
	if !ok || den == 0 {
		return 0, false
	}
	return num / den, true
}

// evalRulesLocked runs every watchdog against the just-scraped tick.
func (p *Pipeline) evalRulesLocked(now float64) {
	for _, rs := range p.rules {
		v, ok := rs.evalLocked(p)
		rs.lastVal, rs.lastOK = v, ok
		breach := ok && ((rs.Op == Above && v > rs.Threshold) || (rs.Op == Below && v < rs.Threshold))
		if breach {
			rs.streak++
			if !rs.firing && rs.streak >= rs.For {
				rs.firing = true
				p.pushAlertLocked(now, rs, v)
			}
			continue
		}
		rs.streak = 0
		if rs.firing {
			rs.firing = false
			p.pushAlertLocked(now, rs, v)
		}
	}
}

// pushAlertLocked appends a transition to the alert ring and the flight
// recorder. Allocation here is fine: transitions are rare by construction.
func (p *Pipeline) pushAlertLocked(now float64, rs *ruleState, v float64) {
	a := Alert{Time: now, Rule: rs.Name, Firing: rs.firing, Value: v, Threshold: rs.Threshold, Desc: rs.Desc}
	p.alerts[p.alertHead] = a
	p.alertHead = (p.alertHead + 1) % len(p.alerts)
	if p.alertN < len(p.alerts) {
		p.alertN++
	}
	var aux uint64
	if rs.firing {
		aux = 1
	}
	p.cfg.Recorder.RecordAt(now, telemetry.KindSLOAlert, 0, uint32(rs.idx), 0, aux)
}

// Alerts returns the retained transitions, oldest first.
func (p *Pipeline) Alerts() []Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Alert, p.alertN)
	for i := 0; i < p.alertN; i++ {
		out[i] = p.alerts[(p.alertHead+len(p.alerts)-p.alertN+i)%len(p.alerts)]
	}
	return out
}

// RuleStatus is one watchdog's current state.
type RuleStatus struct {
	Name   string  `json:"rule"`
	Firing bool    `json:"firing"`
	Streak int     `json:"streak"`
	Value  float64 `json:"value"`
	OK     bool    `json:"evaluated"` // false: series missing or denominator zero
}

// Status reports every installed watchdog.
func (p *Pipeline) Status() []RuleStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]RuleStatus, len(p.rules))
	for i, rs := range p.rules {
		out[i] = RuleStatus{Name: rs.Name, Firing: rs.firing, Streak: rs.streak, Value: rs.lastVal, OK: rs.lastOK}
	}
	return out
}

// Healthy reports whether no watchdog is currently firing.
func (p *Pipeline) Healthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rs := range p.rules {
		if rs.firing {
			return false
		}
	}
	return true
}

// SLOConfig carries the thresholds behind DefaultRules. DefaultSLO returns
// the paper-grounded values; tests tighten or loosen individual knobs.
type SLOConfig struct {
	// AvailabilityErrFrac is the tolerated delivery error fraction. Figure 12
	// shows VIP availability dipping during failover/migration; above 1% of
	// deliveries failing in a scrape window, the availability watchdog fires.
	AvailabilityErrFrac float64
	// HeadroomFrac is the tolerated fraction of aggregate SMux capacity in
	// use. §2.2 sizes SMuxes at ~300K pps before the Figure 1 latency cliff;
	// past 80% utilization the fleet is out of headroom.
	HeadroomFrac float64
	// SMuxP99Seconds bounds the per-window p99 of the SMux hop. The latmodel
	// envelope puts the unloaded software mux at 1ms p90 (§2.2); a window p99
	// beyond it means the software path is inflating.
	SMuxP99Seconds float64
	// OccupancyFrac is the tolerated fraction of any HMux table (host/ECMP/
	// tunnel) in use against the §4.1 switch limits.
	OccupancyFrac float64
	// WireDropsPerSec bounds the wire transport's aggregate drop rate
	// (short reads, bad frames, refused sends, backlog overflow, missing
	// routes). Sustained wire drops mean a peer is down, misconfigured, or
	// being flooded with garbage — all conditions an operator must see.
	WireDropsPerSec float64
	// OverlayFrac is the tolerated fraction of the hybrid overlay in use.
	// The overlay is the bounded exception table pinning connections that
	// straddle a steer-table epoch; near-full means churn is outrunning the
	// budget and new straddling flows are being served unpinned.
	OverlayFrac float64
	// EpochDrainScrapes bounds how many consecutive scrapes a steer drain
	// window may stay open. A drain that never closes means old-epoch
	// connections are not finishing (or the sweep is broken) and hybrid
	// overlay memory cannot be reclaimed.
	EpochDrainScrapes int
	// SkewFrac bounds cross-node occupancy skew (max−min occupancy
	// fraction) for the NIC tables and the hybrid overlays. One node
	// running full while its peers sit empty means the ECMP spread or the
	// controller's placement is broken — invisible to any per-node rule.
	SkewFrac float64
	// SMuxShareFrac bounds the software tier's share of fleet tier
	// deliveries. Duet's economics depend on hardware absorbing the bulk;
	// a sustained software-dominated fleet means the switch tables lost
	// their VIPs (or traffic is all SMuxOnly by accident).
	SMuxShareFrac float64
	// ElectionsPerSec bounds the controller leader-election rate. One
	// election per leader death is the design; a sustained election rate
	// means leadership is flapping — heartbeats not landing inside the
	// lease, or two controllers fighting over a term.
	ElectionsPerSec float64
	// EpochStallMS bounds the age of the leader's newest config epoch while
	// the churn driver is on. A stalled epoch means the leader stopped
	// advancing (wedged churn loop, log append failures) even though it
	// still holds the lease.
	EpochStallMS float64
	// DeltaLagMax bounds how many epochs the most-behind peer trails the
	// leader's delta log head. A peer stuck past the log tail forces the
	// snapshot recovery push — the expensive path the delta protocol exists
	// to avoid at steady state.
	DeltaLagMax float64
}

// DefaultSLO returns the paper-grounded thresholds.
func DefaultSLO() SLOConfig {
	return SLOConfig{
		AvailabilityErrFrac: 0.01,
		HeadroomFrac:        0.8,
		SMuxP99Seconds:      latmodel.SMuxBaseP90,
		OccupancyFrac:       0.9,
		WireDropsPerSec:     50,
		OverlayFrac:         0.9,
		EpochDrainScrapes:   30,
		SkewFrac:            0.3,
		SMuxShareFrac:       0.9,
		ElectionsPerSec:     0.2,
		EpochStallMS:        5000,
		DeltaLagMax:         8,
	}
}

// ControllerRules builds the watchdog set for controller-role wire nodes:
// the health of the replication + HA machinery itself. Installed only on
// controllers; the epoch-stall rule's series exists only on a churn-driving
// leader, so it skips (rather than fires) everywhere else.
func ControllerRules(cfg SLOConfig) []Rule {
	return []Rule{
		{
			Name:      "controller-leader-flap",
			Desc:      "sustained leader-election rate; leadership is bouncing between controllers",
			Num:       "wire.controller.elections",
			NumSrc:    Rate,
			Combine:   One,
			Op:        Above,
			Threshold: cfg.ElectionsPerSec,
			For:       3,
		},
		{
			Name:      "controller-epoch-stall",
			Desc:      "config epoch age on the churn-driving leader; the epoch pipeline stopped advancing",
			Num:       "wire.controller.epoch_age_ms",
			NumSrc:    Value,
			Combine:   One,
			Op:        Above,
			Threshold: cfg.EpochStallMS,
			For:       2,
		},
		{
			Name:      "delta-log-lag",
			Desc:      "most-behind peer's epoch lag against the delta log head; nearing the snapshot-recovery horizon",
			Num:       "wire.delta.lag_max",
			NumSrc:    Value,
			Combine:   One,
			Op:        Above,
			Threshold: cfg.DeltaLagMax,
			For:       3,
		},
	}
}

// ClusterRules builds the fleet-scope watchdog set over the cluster.*
// gauges the obs aggregator (aggregator.go) publishes. Installed only on
// obs-role nodes; every rule reads series no single node emits.
func ClusterRules(cfg SLOConfig) []Rule {
	return []Rule{
		{
			Name:      "cluster-node-down",
			Desc:      "a polled duetd is not answering its /metrics endpoint",
			Num:       "cluster.nodes.up",
			NumSrc:    Value,
			Combine:   Ratio,
			Den:       "cluster.nodes.total",
			DenSrc:    Value,
			Op:        Below,
			Threshold: 1.0,
			For:       3,
		},
		{
			Name:      "fleet-vip-availability",
			Desc:      "fleet-wide drop fraction of wire ingress (all tiers' drop counters over rx frames)",
			Num:       "cluster.fleet.drops",
			NumSrc:    Rate,
			Combine:   Ratio,
			Den:       "cluster.fleet.rx_frames",
			DenSrc:    Rate,
			Op:        Above,
			Threshold: cfg.AvailabilityErrFrac,
			For:       2,
		},
		{
			Name:      "cluster-smux-share",
			Desc:      "software tier serving most fleet deliveries; hardware tables have lost the traffic",
			Num:       "cluster.tier.smux",
			NumSrc:    Rate,
			Combine:   Ratio,
			Den:       "cluster.tier.total",
			DenSrc:    Rate,
			Op:        Above,
			Threshold: cfg.SMuxShareFrac,
			For:       5,
		},
		{
			Name:      "cluster-nmux-skew",
			Desc:      "cross-node NIC table occupancy skew (max-min fraction); placement or ECMP spread broken",
			Num:       "cluster.nmux.skew_pm",
			NumSrc:    Value,
			Combine:   One,
			Op:        Above,
			Threshold: cfg.SkewFrac * 1000,
			For:       3,
		},
		{
			Name:      "cluster-overlay-skew",
			Desc:      "cross-node hybrid overlay occupancy skew (max-min fraction); churn concentrating on one node",
			Num:       "cluster.overlay.skew_pm",
			NumSrc:    Value,
			Combine:   One,
			Op:        Above,
			Threshold: cfg.SkewFrac * 1000,
			For:       3,
		},
		{
			Name:      "cluster-steer-drain",
			Desc:      "a steer drain window open somewhere in the fleet for too many consecutive polls",
			Num:       "cluster.steer.drains_max",
			NumSrc:    Value,
			Combine:   One,
			Op:        Above,
			Threshold: 0,
			For:       cfg.EpochDrainScrapes,
		},
	}
}

// WireRules builds the watchdog set for nodes running the internal/wire
// socket transport. Kept separate from DefaultRules so in-process clusters
// (no wire) do not install rules that can never evaluate.
func WireRules(cfg SLOConfig) []Rule {
	return []Rule{
		{
			Name:      "wire-drops",
			Desc:      "sustained wire transport drop rate (short reads, bad frames, refused sends, backlog overflow)",
			Num:       "wire.drops.total",
			NumSrc:    Rate,
			Combine:   One,
			Op:        Above,
			Threshold: cfg.WireDropsPerSec,
			For:       2,
		},
	}
}

// DefaultRules builds the paper-grounded watchdog set over the metric names
// the cluster emits. The mux tiers' gauges come from each tier's Gauges
// collector (hmux, smux, nmux), which core.Cluster.Collect and every duetd
// mux role run each tick, so a rule on them can fire in either world.
func DefaultRules(cfg SLOConfig) []Rule {
	occupancy := func(table string) Rule {
		return Rule{
			Name:      "hmux-" + table + "-occupancy",
			Desc:      "HMux " + table + " table occupancy vs the §4.1 switch capacity",
			Num:       "hmux.tables." + table + "_used_max",
			NumSrc:    Value,
			Combine:   Ratio,
			Den:       "hmux.tables." + table + "_cap",
			DenSrc:    Value,
			Op:        Above,
			Threshold: cfg.OccupancyFrac,
		}
	}
	return []Rule{
		{
			Name:      "vip-availability",
			Desc:      "delivery error fraction over the scrape window (Fig 12 availability dip)",
			Num:       "core.deliver.errors",
			NumSrc:    Rate,
			Combine:   Ratio,
			Den:       "core.deliver.packets",
			DenSrc:    Rate,
			Op:        Above,
			Threshold: cfg.AvailabilityErrFrac,
		},
		{
			Name:      "smux-headroom",
			Desc:      "SMux fleet load vs provisioned capacity (Fig 1 latency cliff past ~80%)",
			Num:       "smux.packets",
			NumSrc:    Rate,
			Combine:   Ratio,
			Den:       "smux.capacity_pps",
			DenSrc:    Value,
			Op:        Above,
			Threshold: cfg.HeadroomFrac,
		},
		{
			Name:      "smux-latency-p99",
			Desc:      "per-window p99 of the SMux hop vs the latmodel unloaded envelope",
			Num:       "core.deliver.hop.smux.seconds.p99",
			NumSrc:    Value,
			Combine:   One,
			Op:        Above,
			Threshold: cfg.SMuxP99Seconds,
		},
		occupancy("host"),
		occupancy("ecmp"),
		occupancy("tunnel"),
		{
			// Mirrors the HMux occupancy rules for the NIC tier. The cap gauge
			// is 0 on clusters without NMuxes, which skips the rule (Ratio with
			// a zero denominator never evaluates), so it is safe to install
			// unconditionally.
			Name:      "nmux-table-occupancy",
			Desc:      "NIC match-table occupancy (wildcard + flow entries) vs the per-host table size",
			Num:       "nmux.tables.used_max",
			NumSrc:    Value,
			Combine:   Ratio,
			Den:       "nmux.tables.cap",
			DenSrc:    Value,
			Op:        Above,
			Threshold: cfg.OccupancyFrac,
		},
		{
			// The cap gauge is 0 when no VIP runs in hybrid mode, which skips
			// the rule (Ratio with a zero denominator never evaluates).
			Name:      "smux-overlay-occupancy",
			Desc:      "hybrid overlay occupancy vs its bounded budget; near-full means epoch churn outruns pinning",
			Num:       "smux.overlay_total",
			NumSrc:    Value,
			Combine:   Ratio,
			Den:       "smux.overlay_cap",
			DenSrc:    Value,
			Op:        Above,
			Threshold: cfg.OverlayFrac,
		},
		{
			Name:      "steer-epoch-drain",
			Desc:      "steer drain window open for too many consecutive scrapes; old-epoch connections not draining",
			Num:       "steer.drains_active",
			NumSrc:    Value,
			Combine:   One,
			Op:        Above,
			Threshold: 0,
			For:       cfg.EpochDrainScrapes,
		},
	}
}
