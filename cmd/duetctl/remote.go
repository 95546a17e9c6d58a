package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"duet/internal/obs"
)

// runWatch polls a duetctl serve endpoint and renders a compact live view:
// watchdog health, key rates from the last scrape window, and any new alert
// transitions since the previous poll.
func runWatch(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	count := fs.Int("n", 0, "number of polls (0 = forever)")
	fs.Parse(args)
	url := strings.TrimSuffix(fs.Arg(0), "/")
	if url == "" {
		fmt.Fprintln(os.Stderr, "usage: duetctl watch [flags] http://host:port")
		os.Exit(2)
	}
	if !strings.HasPrefix(url, "http") {
		url = "http://" + url
	}

	seen := 0
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval) //duet:allow noclock interactive CLI polling a live process
		}
		if err := watchOnce(url, &seen); err != nil {
			fmt.Fprintln(os.Stderr, "poll failed:", err)
		}
	}
}

func watchOnce(url string, seenAlerts *int) error {
	code, health, err := fetch(url + "/healthz")
	if err != nil {
		return err
	}
	state := "healthy"
	if code != http.StatusOK {
		state = "DEGRADED"
	}

	var dump obs.TimeSeriesDump
	if err := fetchJSON(url+"/timeseries?last=1", &dump); err != nil {
		return err
	}
	rate := func(name string) float64 {
		for _, s := range dump.Series {
			if s.Name == name && len(s.Points) > 0 {
				return s.Points[len(s.Points)-1].Rate
			}
		}
		return 0
	}
	value := func(name string) float64 {
		for _, s := range dump.Series {
			if s.Name == name && len(s.Points) > 0 {
				return s.Points[len(s.Points)-1].Value
			}
		}
		return 0
	}
	occ := ""
	if capacity := value("nmux.tables.cap"); capacity > 0 {
		occ = fmt.Sprintf("  nic-occ %3.0f%%", 100*value("nmux.tables.used_max")/capacity)
	}
	overlay := ""
	if capacity := value("smux.overlay_cap"); capacity > 0 {
		overlay = fmt.Sprintf("  overlay %4.0f/%.0f", value("smux.overlay_total"), capacity)
		if value("steer.drains_active") > 0 {
			overlay += " [drain]"
		}
	}
	fmt.Printf("[t=%8.1f] %-8s  deliver %8.0f pps (err %6.0f/s)  nmux %8.0f pps  smux %8.0f pps  conns %6.0f  epoch %4.0f  steer %3.0f%s%s\n",
		dump.Now, state,
		rate("core.deliver.packets"), rate("core.deliver.errors"),
		rate("core.deliver.tier.nmux"), rate("smux.packets"),
		value("smux.conns_total"), value("core.epoch"),
		value("steer.epoch_max"), occ, overlay)

	var alerts []obs.Alert
	if err := fetchJSON(url+"/alerts", &alerts); err != nil {
		return err
	}
	for ; *seenAlerts < len(alerts); *seenAlerts++ {
		a := alerts[*seenAlerts]
		verb := "RESOLVED"
		if a.Firing {
			verb = "FIRING"
		}
		fmt.Printf("  alert %-8s %-28s value=%.4g threshold=%.4g (%s)\n",
			verb, a.Rule, a.Value, a.Threshold, a.Desc)
	}
	if state == "DEGRADED" {
		for _, line := range strings.Split(strings.TrimSpace(health), "\n") {
			if strings.Contains(line, "FIRING") {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	return nil
}

// topRemote implements the REPL's remote top: it renders /metrics and the
// tail of /trace from a running duetctl serve.
func topRemote(out io.Writer, url string, nEvents int) {
	url = strings.TrimSuffix(url, "/")
	if !strings.HasPrefix(url, "http") {
		url = "http://" + url
	}
	_, metrics, err := fetch(url + "/metrics")
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintf(out, "-- metrics (%s) --\n%s", url, metrics)
	_, trace, err := fetch(url + "/trace")
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	lines := strings.Split(strings.TrimSpace(trace), "\n")
	if len(lines) > nEvents {
		lines = lines[len(lines)-nEvents:]
	}
	fmt.Fprintf(out, "-- trace (last %d events) --\n", len(lines))
	for _, l := range lines {
		fmt.Fprintf(out, "  %s\n", l)
	}
}

// fetchAttempts bounds fetch's retry loop. Pollers like watch run forever
// anyway; the retries exist so one dropped connection or in-flight server
// restart does not surface as a failed poll.
const fetchAttempts = 4

func fetch(url string) (int, string, error) {
	client := http.Client{Timeout: 5 * time.Second}
	var lastErr error
	for attempt := 0; attempt < fetchAttempts; attempt++ {
		if attempt > 0 {
			//duet:allow noclock interactive CLI retry against a live process
			time.Sleep(100 * time.Millisecond << attempt)
		}
		code, body, err := fetchOnce(&client, url)
		if err == nil {
			return code, body, nil
		}
		lastErr = err
	}
	return 0, "", fmt.Errorf("%s: %w (after %d attempts)", url, lastErr, fetchAttempts)
}

func fetchOnce(client *http.Client, url string) (int, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}

func fetchJSON(url string, v any) error {
	code, body, err := fetch(url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, code)
	}
	return json.Unmarshal([]byte(body), v)
}
