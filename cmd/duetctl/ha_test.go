package main

import (
	"bytes"
	"strings"
	"testing"

	"duet/internal/wire"
)

// TestRunHA exercises the ha subcommand against a live in-process
// controller: the snapshot answer must carry the bootstrap epoch, the
// leader's name, and the full replicated VIP table.
func TestRunHA(t *testing.T) {
	spec := &wire.ClusterSpec{
		Nodes: []wire.NodeSpec{
			{Name: "ctl", Role: wire.RoleController, Control: "127.0.0.1:0", HTTP: "127.0.0.1:0"},
		},
		VIPs: []wire.VIPSpec{
			{Addr: "10.0.0.1", Backends: []wire.BackendSpec{{Addr: "100.0.0.1"}}},
			{Addr: "10.0.0.2", Nic: true, Backends: []wire.BackendSpec{{Addr: "100.0.0.2"}}},
		},
		ResyncMillis: 100, ScrapeMillis: 50,
	}
	n, err := wire.StartNode(spec, "ctl")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	var out bytes.Buffer
	runHA(&out, []string{"-v", n.ControlAddr()})
	got := out.String()
	for _, want := range []string{"leader ctl", "epoch  1", "vips   2", "10.0.0.2", "hmux+nic"} {
		if !strings.Contains(got, want) {
			t.Fatalf("ha output missing %q:\n%s", want, got)
		}
	}
}
