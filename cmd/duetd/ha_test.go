package main

// The multi-process controller-HA soak: two controller processes, an SMux
// and a host agent, with the deterministic churn driver advancing an epoch
// every 150ms. The test lets the fleet replicate ≥10 epochs, kill -9s the
// leader mid-run, and asserts the paper's HA story end to end:
//
//  1. the standby takes over within the lease budget and keeps driving
//     epochs from its tailed delta log;
//  2. zero full-config pushes, before and after the kill — bootstrap and
//     recovery both ride the delta protocol;
//  3. the obs watchdogs (controller-leader-flap, controller-epoch-stall,
//     delta-log-lag) are the pass/fail oracle: none may fire.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"duet/internal/obs"
	"duet/internal/wire"
)

// firingAlerts fetches /alerts and returns the rules currently firing (the
// last transition per rule wins).
func firingAlerts(t *testing.T, httpAddr string) []string {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/alerts")
	if err != nil {
		t.Fatalf("GET /alerts: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var alerts []obs.Alert
	if err := json.Unmarshal(body, &alerts); err != nil {
		t.Fatalf("parse /alerts: %v\n%s", err, body)
	}
	state := map[string]bool{}
	for _, a := range alerts {
		state[a.Rule] = a.Firing
	}
	var firing []string
	for rule, on := range state {
		if on {
			firing = append(firing, rule)
		}
	}
	return firing
}

func TestWireControllerFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildDuetd(t)

	ctl1HTTP, ctl2HTTP, smuxHTTP := freeTCP(t), freeTCP(t), freeTCP(t)
	spec := wire.ClusterSpec{
		Nodes: []wire.NodeSpec{
			{Name: "ctl-1", Role: wire.RoleController, Control: freeTCP(t), HTTP: ctl1HTTP},
			{Name: "ctl-2", Role: wire.RoleController, Control: freeTCP(t), HTTP: ctl2HTTP},
			{Name: "smux-1", Role: wire.RoleSMux, Self: "20.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: smuxHTTP},
			{Name: "host-1", Role: wire.RoleHostAgent, Self: "100.0.0.1", Data: freeUDP(t), Control: freeTCP(t), HTTP: freeTCP(t)},
		},
		VIPs: []wire.VIPSpec{
			{Addr: "10.0.0.1", Backends: []wire.BackendSpec{{Addr: "100.0.0.1"}}},
			{Addr: "10.0.0.2", Backends: []wire.BackendSpec{{Addr: "100.0.0.1", Weight: 2}}},
		},
		ResyncMillis: 100,
		ScrapeMillis: 50,
		LeaseMillis:  600,
		ChurnMillis:  150,
		ChurnSeed:    7,
		ChurnFrac:    0.5,
	}
	specPath := filepath.Join(t.TempDir(), "cluster.json")
	raw, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ctl1 := spawn(t, bin, specPath, "ctl-1")
	spawn(t, bin, specPath, "ctl-2")
	spawn(t, bin, specPath, "smux-1")
	spawn(t, bin, specPath, "host-1")

	waitCond(t, "ctl-1 leading", 15*time.Second, func() bool {
		return metric(ctl1HTTP, "duet_wire_controller_leader") == 1
	})

	// Soak: ≥10 churn epochs replicated to the dataplane, standby tailing.
	waitCond(t, "10 epochs on the smux", 20*time.Second, func() bool {
		return metric(smuxHTTP, "duet_wire_delta_epoch") >= 10
	})
	waitCond(t, "standby tailing the log", 10*time.Second, func() bool {
		return metric(ctl2HTTP, "duet_wire_delta_log_head") >= 10
	})
	if full := metric(ctl1HTTP, "duet_wire_controller_full_pushes"); full != 0 {
		t.Fatalf("leader made %v full pushes at steady state; deltas only", full)
	}

	// Kill the leader mid-run. The standby must take over within the lease
	// budget (3× lease absorbs the scrape and election-tick cadences) and
	// resume driving epochs with no full re-push.
	headAtKill := metric(ctl2HTTP, "duet_wire_delta_log_head")
	ctl1.kill()
	lease := time.Duration(spec.LeaseMillis) * time.Millisecond
	waitCond(t, "standby takeover", 3*lease, func() bool {
		return metric(ctl2HTTP, "duet_wire_controller_leader") == 1
	})
	waitCond(t, "fleet advancing under new leader", 15*time.Second, func() bool {
		return metric(smuxHTTP, "duet_wire_delta_epoch") >= headAtKill+5
	})
	if full := metric(ctl2HTTP, "duet_wire_controller_full_pushes"); full != 0 {
		t.Fatalf("takeover made %v full pushes; the tailed log must suffice", full)
	}

	// The watchdog oracle: a clean takeover must not trip any of the HA
	// rules on the surviving controller. (The smux's steer-epoch-drain
	// gauge is excluded by design: a 150ms churn cadence against the 30s
	// drain window keeps a window open continuously — that rule judges
	// drain hygiene, not replication.)
	haRules := map[string]bool{
		"controller-leader-flap": true,
		"controller-epoch-stall": true,
		"delta-log-lag":          true,
	}
	for _, rule := range firingAlerts(t, ctl2HTTP) {
		if haRules[rule] {
			t.Fatalf("HA watchdog %s firing on the new leader after takeover", rule)
		}
	}
}
