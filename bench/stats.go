package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest tenth.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// resident-set high-water mark, so that peakRSSMB covers one run when a
// process makes several ("-workload all", "-compare").
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak is the process's
}

// costMeter adds up what the measured slices cost — process CPU and heap
// allocations — and nothing in between: start and stop bracket each slice, so
// the reference kernel and the oracle checks between slices are not counted.
// A nil meter measures nothing (the traced runs do not report these).
type costMeter struct {
	ms             runtime.MemStats
	cpu            float64 // user+sys seconds
	mallocs, bytes uint64
	c0             float64
	m0, b0         uint64
}

func (m *costMeter) start() {
	if m == nil {
		return
	}
	runtime.ReadMemStats(&m.ms)
	m.m0, m.b0 = m.ms.Mallocs, m.ms.TotalAlloc
	m.c0 = cpuSeconds()
}

func (m *costMeter) stop() {
	if m == nil {
		return
	}
	m.cpu += cpuSeconds() - m.c0
	runtime.ReadMemStats(&m.ms)
	m.mallocs += m.ms.Mallocs - m.m0
	m.bytes += m.ms.TotalAlloc - m.b0
}

// report sets the three per-operation cost metrics; the CPU time is scaled by
// the stage's calibrator.
func (m *costMeter) report(r *report, cal *calibrator, ops float64, n int) {
	rawCPU := m.cpu / ops * 1e6
	r.setCal("cpu_us_per_op", cal.scale(rawCPU), rawCPU, "us", n)
	r.set("allocs_per_op", float64(m.mallocs)/ops, "count", n)
	r.set("alloc_bytes_per_op", float64(m.bytes)/ops, "B", n)
}

// processStart is where the first set-up of a process is timed from.
var processStart = time.Now()
