package main

import (
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"duet/internal/topology"
)

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	os.Stdout = saved
	w.Close()
	return <-done
}

// TestEveryFigureRuns is the smoke test for the experiments binary: every
// registered figure, the four model sweeps included, runs at toy scale and
// prints something, and `-fig all` covers exactly the registered ids.
func TestEveryFigureRuns(t *testing.T) {
	all := append([]string(nil), figIDs("all")...)
	sort.Strings(all)
	var registered []string
	for id := range figures {
		registered = append(registered, id)
	}
	sort.Strings(registered)
	if !reflect.DeepEqual(all, registered) {
		t.Fatalf("-fig all runs %v, registered are %v", all, registered)
	}

	f := &simFlags{seed: 1, vips: 40, epochs: 2, scale: 0.25, trials: 1, delta: 0.05,
		fabric: &topology.Config{Containers: 4, ToRsPerContainer: 8, AggsPerContainer: 2, Cores: 4, ServersPerToR: 16}}
	for _, id := range figIDs("all") {
		var ok bool
		out := captureStdout(t, func() { ok = runFigure(id, f) })
		if !ok {
			t.Errorf("figure %s is in the order but not registered", id)
		}
		// The banner alone is four lines; a figure adds a table under it.
		if lines := strings.Count(out, "\n"); lines < 7 {
			t.Errorf("figure %s printed %d lines:\n%s", id, lines, out)
		}
	}
	if runFigure("no-such-figure", f) {
		t.Error("runFigure accepted an unregistered id")
	}
}

// TestTestbedFiguresGolden holds Figures 11–14 at -seed 1 to what the binary
// printed before the testbed drove a core.Cluster (testdata/*.golden, written
// by that binary): every probe is now a real packet through Cluster.Deliver
// and every migration leg the cluster's own mutators, and not one byte of the
// figures may move for it. A deliberate change to a figure regenerates its
// file with `go run ./cmd/duetsim -fig N -seed 1`. The two ablations that
// cross every mux tier ride along (goldens written by the binary from before
// the tiers shared one resolution entry): the shared-hash rows, and the §9
// replication rows on the cluster's one placement record.
func TestTestbedFiguresGolden(t *testing.T) {
	for _, id := range []string{"11", "12", "13", "14", "ablation-sharedhash", "ablation-replication"} {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile("testdata/fig" + id + ".seed1.golden")
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() { runFigure(id, &simFlags{seed: 1}) })
			if got != string(want) {
				t.Errorf("figure %s differs from its golden file:\n--- got\n%s--- want\n%s", id, got, want)
			}
		})
	}
}

// placementFlags runs the placement figures on the smoke test's fabric at a
// load that leaves about half the traffic on the SMuxes, so most candidate
// switches a scan tries do not fit.
func placementFlags() *simFlags {
	return &simFlags{seed: 1, vips: 300, epochs: 4, scale: 0.08, trials: 3, delta: 0.05,
		fabric: &topology.Config{Containers: 4, ToRsPerContainer: 8, AggsPerContainer: 2, Cores: 4, ServersPerToR: 16}}
}

// TestPlacementFiguresGolden holds every figure whose numbers come out of
// assign's candidate scan to testdata/fig<id>.toy.golden, written by the
// binary from before the scan stopped at the first over-capacity link: a
// placement, a score, a tie-break and an RNG draw may not move for the speed.
// Figure 19 fails and recovers switches, so it also reads netsim's caches
// across invalidations. A deliberate change to one of these figures rewrites
// its file from the "got" this test prints.
func TestPlacementFiguresGolden(t *testing.T) {
	for _, id := range []string{"16", "18", "19", "20a", "20b", "nmux", "sweep-delta", "ablation-binpacking"} {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile("testdata/fig" + id + ".toy.golden")
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() { runFigure(id, placementFlags()) })
			if got != string(want) {
				t.Errorf("figure %s differs from its golden file:\n--- got\n%s--- want\n%s", id, got, want)
			}
		})
	}
}
