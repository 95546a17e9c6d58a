package main

import "time"

// The reference kernel. The box this benchmark runs on drifts: over two
// minutes the same DeliverBatch binary moved from 1,202 to 1,672 ns/pkt while
// an ALU-only loop moved 6 % and a memory-bound loop moved with it. A
// calibrated metric therefore reports
//
//	median(slice time per op) × refNS / median(kernel timings of that stage)
//
// with one kernel run between every two measured slices, so machine drift
// cancels and a change in the measured code does not. The raw (uncalibrated)
// median is kept beside every calibrated value.
//
// The kernel reads 64 B at pseudo-random offsets of a buffer larger than the
// L2 cache, hashes them and writes 8 B back: cache misses plus a short
// dependent ALU chain, the same mix as a table lookup and an encapsulation.
// It allocates nothing, so its time does not depend on how large the system
// under test has grown the heap (an allocating kernel pays GC assist in
// proportion to the live heap, and would move when a change shrinks it).
//
// The kernel is frozen: changing refIters, refBufBytes, refHashBytes or refNS
// changes every calibrated number and is a benchmark change, not a tuning
// knob.
const (
	refIters     = 160_000
	refBufBytes  = 8 << 20
	refHashBytes = 64
	// refNS is the nominal duration of one kernel run; calibrated values are
	// expressed on a machine where the kernel takes exactly this long.
	refNS = 20e6
)

var (
	refBuf     = make([]byte, refBufBytes)
	refSinkSum uint64 // keeps the hash live
)

// refKernel runs the frozen walk-and-hash loop once and returns how long it
// took.
func refKernel() time.Duration {
	t0 := time.Now()
	var sum uint64
	x := uint64(88172645463325252)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		off := int(x % (refBufBytes - refHashBytes))
		line := refBuf[off : off+refHashBytes]
		h := uint64(14695981039346656037)
		for _, c := range line {
			h = (h ^ uint64(c)) * 1099511628211
		}
		line[0], line[8], line[16], line[24] = byte(h), byte(h>>8), byte(h>>16), byte(h>>24)
		sum += h
	}
	refSinkSum += sum
	return time.Since(t0)
}

// calibrator collects the kernel timings of one measured stage.
type calibrator struct{ ref []float64 }

// tick runs the kernel once; call it between measured slices.
func (c *calibrator) tick() { c.ref = append(c.ref, float64(refKernel().Nanoseconds())) }

// refMedianNS is the stage's median kernel time.
func (c *calibrator) refMedianNS() float64 { return median(c.ref) }

// scale converts a raw per-op time of this stage to the reference machine.
func (c *calibrator) scale(raw float64) float64 {
	m := c.refMedianNS()
	if m <= 0 {
		return raw
	}
	return raw * refNS / m
}

// scaleEach converts samples to the reference machine one by one. The samples
// were taken in chunks of per between two kernel runs — ref[k] before chunk k,
// ref[k+1] after it — and each is scaled by the mean of the two: the
// machine's speed while that chunk ran. The box changes speed in phases
// several seconds long, which a stage-wide median of the kernel smears; on
// ctl-churn this took the run-to-run spread of the convergence p90 from 18 %
// to 7 %. A trailing chunk with no kernel run after it uses the one before.
func (c *calibrator) scaleEach(xs []float64, per int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		k := i / per
		m := c.ref[k]
		if k+1 < len(c.ref) {
			m = (m + c.ref[k+1]) / 2
		}
		out[i] = x * refNS / m
	}
	return out
}
