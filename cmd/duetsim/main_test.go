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
