package controller

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"duet/internal/assign"
	"duet/internal/core"
	"duet/internal/packet"
	"duet/internal/topology"
	"duet/internal/workload"
)

// churnWorld is the placement stage of the ctl-churn benchmark: a fabric of
// 4 containers × (8 ToRs + 2 Aggs) + 4 Cores with NIC tables, the generator's
// 240-epoch trace of 2,000 VIPs at 6e11 bps (skew 1.6, up to 60 DIPs, churn
// 0.25, seed 1), synced with 4 backends per VIP, and a controller that keeps
// placing after a VIP fails to fit.
func churnWorld(tb testing.TB) (*workload.Workload, *Controller) {
	tb.Helper()
	c := churnCluster(tb)
	w, err := workload.Generate(workload.Config{
		NumVIPs: 2000, TotalRate: 6e11, Epochs: 240, Seed: 1,
		TrafficSkew: 1.6, MaxDIPs: 60, InternetFrac: 0.3, ChurnStdDev: 0.25,
	}, c.Topo)
	if err != nil {
		tb.Fatal(err)
	}
	opts := assign.DefaultOptions()
	opts.Seed, opts.ContinueOnFail, opts.NMuxTableSize = 1, true, churnNMuxTable
	ct := New(c, opts)
	if err := ct.SyncVIPs(w, 4, nil); err != nil {
		tb.Fatal(err)
	}
	return w, ct
}

// churnNMuxTable sizes churnWorld's NIC tables, and its controller's view of them.
const churnNMuxTable = 2048

// churnCluster is churnWorld's cluster, before any VIP.
func churnCluster(tb testing.TB) *core.Cluster {
	tb.Helper()
	c, err := core.New(core.Config{
		Topology: topology.Config{
			Containers: 4, ToRsPerContainer: 8, AggsPerContainer: 2, Cores: 4, ServersPerToR: 20,
		},
		NumSMuxes:     4,
		Aggregate:     packet.MustParsePrefix("10.0.0.0/8"),
		NMuxTableSize: churnNMuxTable,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// placementDigest is the FNV-1a digest of the placements of
// RunEpoch(0) and RunEpochDelta over epochs 1–40 of churnWorld's trace,
// computed before the placement scan's probe table, DIP-first probe order,
// division-free feasibility test and radix VIP sort went in. Those changes
// make the scan cheaper without changing one decision; a change that moves
// this digest changes placements, and must say why.
const placementDigest = 0x42fc5c9dda0011b9

// TestEpochDigestIsStable pins every epoch's SwitchOf, TierOf, MRU bits,
// Moved and Refused on the ctl-churn placement stage.
func TestEpochDigestIsStable(t *testing.T) {
	w, ct := churnWorld(t)
	h := fnv.New64a()
	var buf []byte
	for e := 0; e <= 40; e++ {
		run := ct.RunEpochDelta
		if e == 0 {
			run = ct.RunEpoch
		}
		rep, err := run(w, e)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		a := ct.Previous()
		buf = buf[:0]
		for i := range a.SwitchOf {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(a.SwitchOf[i]))
			buf = append(buf, byte(a.TierOf[i]))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rep.MRU))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Moved))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Refused))
		h.Write(buf)
	}
	if got := h.Sum64(); got != placementDigest {
		t.Fatalf("placement digest %#x, want %#x", got, placementDigest)
	}
}

// BenchmarkRunEpochDelta sizes an epoch of the incremental engine and its
// updater without the bench/ harness: RunEpoch(0) on churnWorld outside the
// timer, then RunEpochDelta over epochs 1–223, the trace's full-churn
// epochs (ctl-churn's stage A). It reports µs and allocations per epoch.
func BenchmarkRunEpochDelta(b *testing.B) {
	const from, to = 1, 224
	var ms runtime.MemStats
	var mallocs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, ct := churnWorld(b)
		if _, err := ct.RunEpoch(w, 0); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		b.StartTimer()
		for e := from; e < to; e++ {
			if _, err := ct.RunEpochDelta(w, e); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
	}
	epochs := float64(b.N * (to - from))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/epochs, "µs/epoch")
	b.ReportMetric(float64(mallocs)/epochs, "allocs/epoch")
}

// BenchmarkSyncVIPs sizes a bulk load: SyncVIPs of the generator's VIPs, 4
// backends each, onto a fresh cluster of churnWorld's fabric — at ctl-churn's
// 2,000 VIPs and at the paper's 30 k. Cluster and workload are built outside
// the timer. It reports ms, MB and allocations per load.
func BenchmarkSyncVIPs(b *testing.B) {
	for _, vips := range []int{2000, 30000} {
		b.Run(fmt.Sprintf("vips=%d", vips), func(b *testing.B) {
			var ms runtime.MemStats
			var mallocs, bytes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := churnCluster(b)
				w, err := workload.Generate(workload.Config{
					NumVIPs: vips, TotalRate: 6e11, Epochs: 1, Seed: 1,
					TrafficSkew: 1.6, MaxDIPs: 60, InternetFrac: 0.3,
				}, c.Topo)
				if err != nil {
					b.Fatal(err)
				}
				ct := New(c, assign.DefaultOptions())
				runtime.ReadMemStats(&ms)
				m0, b0 := ms.Mallocs, ms.TotalAlloc
				b.StartTimer()
				if err := ct.SyncVIPs(w, 4, nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - m0
				bytes += ms.TotalAlloc - b0
			}
			n := float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/n, "ms/load")
			b.ReportMetric(float64(bytes)/1e6/n, "MB/load")
			b.ReportMetric(float64(mallocs)/n, "allocs/load")
		})
	}
}
