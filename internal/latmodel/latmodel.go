// Package latmodel provides the latency, CPU and cost models of the two mux
// types, calibrated to the paper's measurements:
//
//   - SMux (Figure 1): 196 µs median added latency at no load with a heavy
//     tail (90th percentile ≈ 1 ms), CPU saturation at 300K packets/sec, and
//     latency that rises sharply as offered load approaches and passes
//     capacity.
//   - HMux (§3.1, §7.1): dataplane forwarding at line rate with microsecond
//     latency, independent of packet rate until link capacity.
//
// The models are used by the discrete-event testbed (Figures 11–13) and by
// the capacity/latency trade-off harnesses (Figures 16–17).
package latmodel

import (
	"math"
	"math/rand"
)

// Paper-calibrated constants.
const (
	// SMuxBaseMedian is the SMux's no-load median added latency (§2.2).
	SMuxBaseMedian = 196e-6
	// SMuxBaseP90 is the no-load 90th percentile (§2.2: "the 90th percentile
	// being 1ms").
	SMuxBaseP90 = 1e-3
	// SMuxCapacityPPS is the CPU saturation point (§2.2).
	SMuxCapacityPPS = 300_000
	// SMuxCapacityBps is the equivalent bit rate at 1500-byte packets
	// (§2.2: "300K packets/sec ... translates to 3.6 Gbps").
	SMuxCapacityBps = 3.6e9
	// HMuxLatency is the switch dataplane's added latency (§3.1:
	// "microseconds").
	HMuxLatency = 2e-6
	// BaseRTT is the median datacenter RTT without a load balancer (§2.2).
	BaseRTT = 381e-6
	// IndirectionDelay is the extra propagation from VIP indirection (§4:
	// "less than 30µsec of the 381µsec RTT").
	IndirectionDelay = 30e-6
	// SMuxCostUSD is the amortized cost of one SMux server (§1: 4000 SMuxes
	// ≈ USD 10 million).
	SMuxCostUSD = 2500.0
)

// SMuxModel models one software mux's latency/CPU behaviour.
type SMuxModel struct {
	// CapacityPPS is the CPU saturation packet rate.
	CapacityPPS float64
	// BaseMedian is the no-load median added latency in seconds.
	BaseMedian float64
	// BaseSigma is the lognormal shape of the no-load latency distribution.
	BaseSigma float64
	// MaxQueue caps queueing delay (finite buffers drop beyond this).
	MaxQueue float64
}

// DefaultSMuxModel returns the Figure 1 calibration. BaseSigma is derived
// from median 196 µs and p90 1 ms: sigma = ln(p90/median)/z90.
func DefaultSMuxModel() SMuxModel {
	return SMuxModel{
		CapacityPPS: SMuxCapacityPPS,
		BaseMedian:  SMuxBaseMedian,
		BaseSigma:   math.Log(SMuxBaseP90/SMuxBaseMedian) / 1.2816,
		MaxQueue:    20e-3,
	}
}

// Util returns the CPU utilization fraction for an offered packet rate
// (may exceed 1 when overloaded).
func (m SMuxModel) Util(pps float64) float64 { return pps / m.CapacityPPS }

// CPUPercent returns the Figure 1b metric: CPU utilization percent, capped
// at 100.
func (m SMuxModel) CPUPercent(pps float64) float64 {
	u := 100 * m.Util(pps)
	if u > 100 {
		return 100
	}
	return u
}

// QueueDelay returns the deterministic queueing-delay component at an
// offered rate: an M/M/1-style ρ/(1−ρ) blow-up scaled to the no-load service
// envelope, saturating at MaxQueue once the CPU is past capacity.
func (m SMuxModel) QueueDelay(pps float64) float64 {
	rho := m.Util(pps)
	if rho >= 0.999 {
		return m.MaxQueue
	}
	d := m.BaseMedian * rho / (1 - rho)
	if d > m.MaxQueue {
		return m.MaxQueue
	}
	return d
}

// MedianLatency returns the median added latency at an offered rate.
func (m SMuxModel) MedianLatency(pps float64) float64 {
	return m.BaseMedian + m.QueueDelay(pps)
}

// SampleLatency draws one added-latency sample at an offered rate: a
// lognormal no-load component plus the deterministic queueing delay.
func (m SMuxModel) SampleLatency(rng *rand.Rand, pps float64) float64 {
	base := m.BaseMedian * math.Exp(rng.NormFloat64()*m.BaseSigma)
	return base + m.QueueDelay(pps)
}

// SampleRTT draws one end-to-end RTT through the SMux: base network RTT plus
// the mux's added latency.
func (m SMuxModel) SampleRTT(rng *rand.Rand, pps float64) float64 {
	return BaseRTT + m.SampleLatency(rng, pps)
}

// HMuxModel models the switch dataplane.
type HMuxModel struct {
	// Latency is the median added forwarding latency.
	Latency float64
	// Jitter is a small uniform jitter bound.
	Jitter float64
	// LineRateBps is the per-port capacity; offered load beyond it queues in
	// the (shallow) switch buffers.
	LineRateBps float64
}

// DefaultHMuxModel returns the §3.1 calibration: microsecond latency,
// 10 Gbps ports.
func DefaultHMuxModel() HMuxModel {
	return HMuxModel{Latency: HMuxLatency, Jitter: 1e-6, LineRateBps: 10e9}
}

// SampleLatency draws one added-latency sample. Rate-independent below line
// rate (the dataplane forwards every packet at line rate, §7.1).
func (h HMuxModel) SampleLatency(rng *rand.Rand, offeredBps float64) float64 {
	lat := h.Latency + rng.Float64()*h.Jitter
	if offeredBps > h.LineRateBps {
		// Hard overload: shallow switch buffers add bounded delay and drop.
		lat += 200e-6
	}
	return lat
}

// SampleRTT draws one end-to-end RTT through the HMux.
func (h HMuxModel) SampleRTT(rng *rand.Rand, offeredBps float64) float64 {
	return BaseRTT + h.SampleLatency(rng, offeredBps)
}

// Cost returns the dollar cost of n SMuxes. HMuxes are free: they are the
// switches the datacenter already owns (§3.3.2 "Low cost").
func Cost(nSMux int) float64 { return float64(nSMux) * SMuxCostUSD }
