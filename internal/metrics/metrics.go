// Package metrics is the figure toolkit cmd/duetsim reports with: a quantile
// and a mean over raw samples (Figures 1a, 11, 14, 19), time-series windows
// and bins (Figure 11), a terminal sparkline and unit formatters. Bucketed
// observations — everything a running node measures — are read with
// telemetry.BucketQuantile instead, and nothing cmd/duetd links imports this
// package (`make lint` fences it).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Quantile returns the p-quantile (p in [0,1]) of samples: the element at
// the rank nearest p·(n−1) in sorted order, NaN when there are none. It
// sorts a copy, so samples may be in any order and is left untouched.
func Quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	idx := int(math.Round(p * float64(len(sorted)-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean returns the sample mean, NaN when there are no samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// TimeSeries is an append-only (t, value) sequence.
type TimeSeries struct {
	T []float64
	V []float64
}

// Add appends a point; t must be non-decreasing for Window to be exact.
func (ts *TimeSeries) Add(t, v float64) {
	ts.T = append(ts.T, t)
	ts.V = append(ts.V, v)
}

// Window returns the values with t in [from, to).
func (ts *TimeSeries) Window(from, to float64) []float64 {
	var out []float64
	for i, t := range ts.T {
		if t >= from && t < to {
			out = append(out, ts.V[i])
		}
	}
	return out
}

// Bin aggregates the series into fixed-width time bins, reporting each bin's
// mean; empty bins yield NaN.
func (ts *TimeSeries) Bin(from, to, width float64) []float64 {
	if width <= 0 || to <= from {
		return nil
	}
	n := int(math.Ceil((to - from) / width))
	sums := make([]float64, n)
	counts := make([]int, n)
	for i, t := range ts.T {
		if t < from || t >= to {
			continue
		}
		b := int((t - from) / width)
		if b >= n {
			b = n - 1
		}
		sums[b] += ts.V[i]
		counts[b]++
	}
	out := make([]float64, n)
	for i := range out {
		if counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

// Sparkline renders values as a unicode mini-chart for terminal output.
// NaNs render as spaces.
func Sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat(" ", len(vs))
	}
	var b strings.Builder
	for _, v := range vs {
		switch {
		case math.IsNaN(v):
			b.WriteRune(' ')
		case hi == lo:
			b.WriteRune(ramp[0])
		default:
			i := int((v - lo) / (hi - lo) * float64(len(ramp)-1))
			b.WriteRune(ramp[i])
		}
	}
	return b.String()
}

// FmtDuration renders seconds with an adaptive unit (µs/ms/s).
func FmtDuration(sec float64) string {
	abs := math.Abs(sec)
	switch {
	case abs < 1e-3:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case abs < 1:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}

// FmtRate renders bits/second with an adaptive unit.
func FmtRate(bps float64) string {
	abs := math.Abs(bps)
	switch {
	case abs >= 1e12:
		return fmt.Sprintf("%.2fTbps", bps/1e12)
	case abs >= 1e9:
		return fmt.Sprintf("%.2fGbps", bps/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.2fMbps", bps/1e6)
	default:
		return fmt.Sprintf("%.0fbps", bps)
	}
}
