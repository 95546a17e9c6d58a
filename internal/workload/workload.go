// Package workload generates the synthetic equivalent of the paper's
// production traffic trace (§8.1, Figure 15): a population of VIPs with a
// heavily skewed traffic distribution (a few "elephant" VIPs carry most
// bytes), a heavy-tailed DIP-count distribution, per-VIP source racks, and a
// multi-hour trace of 10-minute epochs in which per-VIP rates drift.
//
// All generation is driven by a caller-supplied seed, so every experiment in
// this repository is reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"duet/internal/packet"
	"duet/internal/topology"
)

// VIPID indexes a VIP within a Workload.
type VIPID int32

// RackWeight is a traffic source: a rack index and the fraction of the VIP's
// intra-DC traffic originating there.
type RackWeight struct {
	Rack   int
	Weight float64
}

// VIP describes one virtual IP and its service.
type VIP struct {
	ID   VIPID
	Addr packet.Addr

	// DIPRacks holds the rack of every DIP backing this VIP; its length is
	// the DIP count.
	DIPRacks []int

	// SrcRacks are the intra-DC traffic sources (weights sum to 1).
	SrcRacks []RackWeight

	// InternetFrac is the share of this VIP's traffic entering from the
	// Internet through the core layer (paper §2: ~30% of VIP traffic).
	InternetFrac float64

	// PacketSize is the VIP's mean packet size in bytes, used to convert
	// byte rates to packet rates.
	PacketSize float64
}

// NumDIPs returns the DIP count of the VIP.
func (v *VIP) NumDIPs() int { return len(v.DIPRacks) }

// Workload is a VIP population plus a trace of per-epoch rates.
type Workload struct {
	VIPs []VIP

	// Rates[e][v] is VIP v's offered load in bits/second during epoch e.
	Rates [][]float64
}

// NumEpochs returns the number of trace epochs.
func (w *Workload) NumEpochs() int { return len(w.Rates) }

// TotalRate returns the aggregate offered load in epoch e.
func (w *Workload) TotalRate(e int) float64 {
	var sum float64
	for _, r := range w.Rates[e] {
		sum += r
	}
	return sum
}

// Config controls generation.
type Config struct {
	NumVIPs   int
	TotalRate float64 // aggregate bps in epoch 0 (e.g. 10 Tbps)
	Epochs    int     // number of 10-minute epochs (paper: 18 for 3 hours)
	Seed      int64

	// TrafficSkew is the Zipf exponent of the per-VIP rate distribution.
	// 1.4 reproduces Figure 15's "top few percent of VIPs carry almost all
	// bytes" shape.
	TrafficSkew float64

	// MaxDIPs caps the DIP count of the largest VIP.
	MaxDIPs int

	// InternetFrac is the mean fraction of traffic arriving from the
	// Internet (paper: 30%).
	InternetFrac float64

	// ChurnStdDev is the per-epoch multiplicative drift (lognormal sigma)
	// applied to each VIP's rate.
	ChurnStdDev float64

	// MaxVIPRate caps any single VIP's rate. A VIP is pinned to exactly one
	// switch, so its traffic must fit through one switch's ports; the cap
	// keeps the Zipf head physically realizable (excess is redistributed
	// over the tail). 0 means 0.6% of TotalRate.
	MaxVIPRate float64

	// MaxSrcRackRate bounds the traffic one source rack emits for one VIP;
	// heavy VIPs get proportionally more source racks (a popular service has
	// many clients). 0 means 2.5 Gbps.
	MaxSrcRackRate float64

	// MaxDIPRackRate bounds the traffic one rack's DIPs absorb for one VIP;
	// heavy VIPs spread their DIPs over more racks. 0 means 4 Gbps.
	MaxDIPRackRate float64
}

// DefaultConfig returns generation parameters matched to the paper's trace.
func DefaultConfig() Config {
	return Config{
		NumVIPs:      4000,
		TotalRate:    10e12, // 10 Tbps
		Epochs:       18,    // 3 hours of 10-minute epochs
		Seed:         1,
		TrafficSkew:  1.6,
		MaxDIPs:      1500,
		InternetFrac: 0.3,
		ChurnStdDev:  0.25,
	}
}

// Generate builds a workload over the given topology.
func Generate(cfg Config, topo *topology.Topology) (*Workload, error) {
	if cfg.NumVIPs <= 0 {
		return nil, fmt.Errorf("workload: NumVIPs must be positive")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.TotalRate <= 0 {
		return nil, fmt.Errorf("workload: TotalRate must be positive")
	}
	if cfg.TrafficSkew <= 1 {
		cfg.TrafficSkew = 1.4
	}
	if cfg.MaxDIPs <= 0 {
		cfg.MaxDIPs = 1500
	}
	if cfg.MaxSrcRackRate <= 0 {
		cfg.MaxSrcRackRate = 2.5e9
	}
	if cfg.MaxDIPRackRate <= 0 {
		cfg.MaxDIPRackRate = 4e9
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	racks := topo.NumRacks()

	w := &Workload{}
	w.VIPs = make([]VIP, cfg.NumVIPs)

	// Per-VIP base rate: Zipf over rank. Rank r (1-based) gets 1/r^s; the
	// whole vector is normalized to TotalRate, then the head is clamped to
	// MaxVIPRate with the excess redistributed over unclamped VIPs (a VIP
	// must fit through a single switch).
	if cfg.MaxVIPRate <= 0 {
		cfg.MaxVIPRate = 0.006 * cfg.TotalRate
	}
	weights := make([]float64, cfg.NumVIPs)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), cfg.TrafficSkew)
		wsum += weights[i]
	}
	for i := range weights {
		weights[i] = cfg.TotalRate * weights[i] / wsum
	}
	clampHead(weights, cfg.MaxVIPRate, cfg.TotalRate)

	// DIP counts: an independent Pareto-tailed draw per VIP, sorted so the
	// biggest backend pools go to the biggest VIPs (Figure 15 shows DIP
	// count and traffic are both heavy-tailed and correlated). Most VIPs end
	// up with a handful of DIPs; a few have hundreds to >1000.
	nds := make([]int, cfg.NumVIPs)
	for i := range nds {
		u := rng.Float64()
		if u < 1e-6 {
			u = 1e-6
		}
		nd := 1 + int(3*(math.Pow(u, -0.8)-1))
		if nd > cfg.MaxDIPs {
			nd = cfg.MaxDIPs
		}
		nds[i] = nd
	}
	sort.Sort(sort.Reverse(sort.IntSlice(nds)))

	for i := range w.VIPs {
		v := &w.VIPs[i]
		v.ID = VIPID(i)
		// 10.x.y.z VIP space (1-based so no VIP gets the .0.0.0 address).
		n := i + 1
		v.Addr = packet.AddrFrom4(10, byte(n>>16), byte(n>>8), byte(n))

		// Internet fraction jitters around the mean, clipped to [0,1].
		f := cfg.InternetFrac * (0.5 + rng.Float64())
		if f > 1 {
			f = 1
		}
		v.InternetFrac = f

		nd := nds[i]
		v.DIPRacks = make([]int, nd)
		// DIPs of one VIP cluster into a handful of racks, but heavy VIPs
		// must spread so no rack absorbs more than MaxDIPRackRate of the
		// VIP's traffic.
		clusterRacks := 1 + nd/20
		if need := int(math.Ceil(weights[i] / cfg.MaxDIPRackRate)); need > clusterRacks {
			clusterRacks = need
		}
		if clusterRacks > nd {
			clusterRacks = nd
		}
		if clusterRacks > racks {
			clusterRacks = racks
		}
		cluster := rng.Perm(racks)[:clusterRacks]
		for d := range v.DIPRacks {
			// Strict round-robin keeps per-rack shares within one DIP of
			// each other, so the MaxDIPRackRate bound actually holds.
			v.DIPRacks[d] = cluster[d%len(cluster)]
		}

		// Source racks: a handful for small VIPs, enough that no rack emits
		// more than MaxSrcRackRate of this VIP's intra-DC traffic for big
		// ones.
		ns := 1 + rng.Intn(8)
		if need := int(math.Ceil(weights[i] * (1 - f) / cfg.MaxSrcRackRate)); need > ns {
			ns = need
		}
		if ns > racks {
			ns = racks
		}
		perm := rng.Perm(racks)[:ns]
		v.SrcRacks = make([]RackWeight, ns)
		if ns > 8 {
			// Heavy VIPs: near-uniform source spread (±25% jitter) so the
			// per-rack bound holds.
			var sum float64
			for j := 0; j < ns; j++ {
				x := 0.75 + 0.5*rng.Float64()
				v.SrcRacks[j] = RackWeight{Rack: perm[j], Weight: x}
				sum += x
			}
			for j := range v.SrcRacks {
				v.SrcRacks[j].Weight /= sum
			}
		} else {
			var sum float64
			for j := 0; j < ns; j++ {
				x := rng.ExpFloat64()
				v.SrcRacks[j] = RackWeight{Rack: perm[j], Weight: x}
				sum += x
			}
			for j := range v.SrcRacks {
				v.SrcRacks[j].Weight /= sum
			}
		}

		// Packet size 200..1400 bytes.
		v.PacketSize = 200 + rng.Float64()*1200
	}

	// Epoch 0 rates.
	w.Rates = make([][]float64, cfg.Epochs)
	w.Rates[0] = append([]float64(nil), weights...)
	// Subsequent epochs: lognormal multiplicative drift, renormalized so the
	// aggregate stays near TotalRate (paper trace varies 6.2–7.1 Tbps around
	// its mean; we reproduce proportional variation).
	for e := 1; e < cfg.Epochs; e++ {
		prev := w.Rates[e-1]
		cur := make([]float64, cfg.NumVIPs)
		var sum float64
		for i := range cur {
			drift := math.Exp(rng.NormFloat64() * cfg.ChurnStdDev)
			cur[i] = prev[i] * drift
			sum += cur[i]
		}
		// Let the total wander ±7% epoch-to-epoch around TotalRate.
		target := cfg.TotalRate * (1 + 0.07*(2*rng.Float64()-1))
		for i := range cur {
			cur[i] *= target / sum
		}
		clampHead(cur, cfg.MaxVIPRate, target)
		w.Rates[e] = cur
	}
	return w, nil
}

// clampHead caps every rate at maxRate, redistributing the excess
// proportionally over the uncapped entries so the total stays at target.
func clampHead(rates []float64, maxRate, target float64) {
	for iter := 0; iter < 16; iter++ {
		var excess, free float64
		for _, r := range rates {
			if r > maxRate {
				excess += r - maxRate
			} else {
				free += r
			}
		}
		if excess <= 1e-9*target {
			return
		}
		if free <= 0 {
			// Everything is at the cap; nothing to redistribute into.
			for i := range rates {
				if rates[i] > maxRate {
					rates[i] = maxRate
				}
			}
			return
		}
		scale := 1 + excess/free
		for i := range rates {
			if rates[i] > maxRate {
				rates[i] = maxRate
			} else {
				rates[i] *= scale
			}
		}
	}
}

// MustGenerate is Generate for static configurations; it panics on error.
func MustGenerate(cfg Config, topo *topology.Topology) *Workload {
	w, err := Generate(cfg, topo)
	if err != nil {
		panic(err)
	}
	return w
}

// DistributionPoint is one point of a Figure 15 CDF: after the top frac of
// VIPs (sorted descending by the metric), CumFrac of the metric is covered.
type DistributionPoint struct {
	VIPFrac float64
	CumFrac float64
}

// CumulativeShare computes the Figure 15 CDF for a per-VIP metric: VIPs are
// sorted descending by value; point k reports the cumulative fraction of the
// metric held by the top k/N VIPs.
func CumulativeShare(values []float64) []DistributionPoint {
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var total float64
	for _, v := range sorted {
		total += v
	}
	out := make([]DistributionPoint, len(sorted))
	var cum float64
	for i, v := range sorted {
		cum += v
		cf := 1.0
		if total > 0 {
			cf = cum / total
		}
		out[i] = DistributionPoint{
			VIPFrac: float64(i+1) / float64(len(sorted)),
			CumFrac: cf,
		}
	}
	return out
}

// ByteShares returns per-VIP byte rates for epoch e (for Figure 15 "Bytes").
func (w *Workload) ByteShares(e int) []float64 {
	return append([]float64(nil), w.Rates[e]...)
}

// PacketShares returns per-VIP packet rates for epoch e (Figure 15
// "Packets"): byte rate divided by the VIP's mean packet size.
func (w *Workload) PacketShares(e int) []float64 {
	out := make([]float64, len(w.VIPs))
	for i := range w.VIPs {
		out[i] = w.Rates[e][i] / (8 * w.VIPs[i].PacketSize)
	}
	return out
}

// DIPShares returns per-VIP DIP counts (Figure 15 "DIPs").
func (w *Workload) DIPShares() []float64 {
	out := make([]float64, len(w.VIPs))
	for i := range w.VIPs {
		out[i] = float64(w.VIPs[i].NumDIPs())
	}
	return out
}

// TotalDIPs returns the total DIP count across all VIPs.
func (w *Workload) TotalDIPs() int {
	var n int
	for i := range w.VIPs {
		n += w.VIPs[i].NumDIPs()
	}
	return n
}
