package obs

import (
	"math"
	"slices"
	"strings"
	"testing"

	"duet/internal/telemetry"
)

// TestRuleRatioFireAndResolve exercises the availability-style ratio rule:
// it fires when the error rate crosses the threshold and resolves when the
// breach clears, logging exactly the two transitions.
func TestRuleRatioFireAndResolve(t *testing.T) {
	reg := telemetry.NewRegistry()
	pkts := reg.Counter("pkts")
	errs := reg.Counter("errs")
	rec := telemetry.NewRecorder(256)
	clk := &fakeClock{}
	p := New(Config{Registry: reg, Recorder: rec, Windows: 8, Now: clk.now})
	p.AddRules(Rule{
		Name: "avail", Desc: "error fraction",
		Num: "errs", NumSrc: Rate, Combine: Ratio, Den: "pkts", DenSrc: Rate,
		Op: Above, Threshold: 0.01,
	})

	pkts.Shard().Add(1000)
	p.Tick() // warm-up: rates are zero
	clk.advance(1)

	pkts.Shard().Add(1000)
	errs.Shard().Add(500) // 50% errors this window
	p.Tick()
	if p.Healthy() {
		t.Fatal("pipeline healthy with 50% error rate")
	}
	clk.advance(1)

	pkts.Shard().Add(1000) // clean window
	p.Tick()
	if !p.Healthy() {
		t.Fatal("pipeline unhealthy after errors stopped")
	}

	alerts := p.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alert log = %+v, want fire+resolve", alerts)
	}
	if !alerts[0].Firing || alerts[0].Rule != "avail" || alerts[0].Time != 1 {
		t.Fatalf("first alert = %+v, want avail firing at t=1", alerts[0])
	}
	if alerts[1].Firing || alerts[1].Time != 2 {
		t.Fatalf("second alert = %+v, want resolve at t=2", alerts[1])
	}
	if alerts[0].Value != 0.5 {
		t.Fatalf("firing value = %g, want 0.5", alerts[0].Value)
	}

	// Both transitions also land in the flight recorder.
	var events int
	for _, e := range rec.Snapshot() {
		if e.Kind == telemetry.KindSLOAlert {
			events++
		}
	}
	if events != 2 {
		t.Fatalf("recorder has %d slo-alert events, want 2", events)
	}
}

// TestRuleForStreak checks that a rule with For=3 needs three consecutive
// breaching ticks, and that a clean tick resets the streak.
func TestRuleForStreak(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("load")
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 8)
	p.AddRules(Rule{Name: "sustained", Num: "load", NumSrc: Value, Op: Above, Threshold: 10, For: 3})

	steps := []struct {
		v      int64
		firing bool
	}{
		{20, false}, {20, false}, {5, false}, // streak broken before 3
		{20, false}, {20, false}, {20, true}, // three in a row
		{20, true}, // stays firing, no duplicate alert
	}
	for i, st := range steps {
		g.Set(st.v)
		p.Tick()
		clk.advance(1)
		if got := !p.Healthy(); got != st.firing {
			t.Fatalf("step %d: firing=%v, want %v", i, got, st.firing)
		}
	}
	if n := len(p.Alerts()); n != 1 {
		t.Fatalf("alert log has %d entries, want 1 (single firing transition)", n)
	}
}

// TestRuleMissingSeriesSkipped checks that a rule over a series that does
// not exist (or a zero denominator) neither fires nor panics, and starts
// evaluating once the series appears.
func TestRuleMissingSeriesSkipped(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 8)
	p.AddRules(
		Rule{Name: "ghost", Num: "not.there", NumSrc: Value, Op: Above, Threshold: 0},
		Rule{Name: "div0", Num: "num", NumSrc: Value, Combine: Ratio, Den: "den", DenSrc: Value, Op: Above, Threshold: 0.5},
	)
	num := reg.Counter("num")
	den := reg.Gauge("den") // stays 0: denominator-zero skip
	num.Shard().Add(10)
	p.Tick()
	clk.advance(1)
	if !p.Healthy() {
		t.Fatal("skipped rules must not fire")
	}
	for _, st := range p.Status() {
		if st.OK {
			t.Fatalf("rule %s evaluated, want skipped", st.Name)
		}
	}

	den.Set(10) // now 10/10 = 1 > 0.5
	p.Tick()
	if p.Healthy() {
		t.Fatal("div0 rule should fire once the denominator is live")
	}
}

// TestOverlayOccupancyRule exercises the hybrid-overlay watchdog: silent
// while no VIP runs hybrid (cap gauge 0 → ratio skipped), firing when the
// bounded overlay nears its budget, resolving once the drain sweep empties
// it.
func TestOverlayOccupancyRule(t *testing.T) {
	reg := telemetry.NewRegistry()
	total := reg.Gauge("smux.overlay_total")
	cap := reg.Gauge("smux.overlay_cap")
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 8)
	p.AddRules(DefaultRules(DefaultSLO())...)

	total.Set(100) // cap still 0: no hybrid VIPs, rule must skip
	p.Tick()
	clk.advance(1)
	if !p.Healthy() {
		t.Fatal("overlay rule fired with a zero capacity gauge")
	}

	cap.Set(1024)
	total.Set(1000) // 97.6% of budget
	p.Tick()
	clk.advance(1)
	if p.Healthy() {
		t.Fatal("near-full overlay must fire")
	}
	alerts := p.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "smux-overlay-occupancy" {
		t.Fatalf("alerts = %+v, want smux-overlay-occupancy firing", alerts)
	}

	total.Set(0) // sweep reclaimed the pins
	p.Tick()
	if !p.Healthy() {
		t.Fatal("emptied overlay must resolve")
	}
}

// TestEpochDrainRule exercises the stuck-drain watchdog: a steer drain
// window open for EpochDrainScrapes consecutive scrapes fires; a window
// that closes in time never does.
func TestEpochDrainRule(t *testing.T) {
	reg := telemetry.NewRegistry()
	drains := reg.Gauge("steer.drains_active")
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 8)
	slo := DefaultSLO()
	slo.EpochDrainScrapes = 3 // tighten so the test stays fast
	p.AddRules(DefaultRules(slo)...)

	// A drain that closes after two scrapes: never fires.
	drains.Set(1)
	for i := 0; i < 2; i++ {
		p.Tick()
		clk.advance(1)
	}
	drains.Set(0)
	p.Tick()
	clk.advance(1)
	if !p.Healthy() {
		t.Fatal("short drain window fired the stuck-drain rule")
	}

	// A drain that never closes: fires on the third consecutive scrape.
	drains.Set(1)
	for i := 0; i < 3; i++ {
		if !p.Healthy() {
			t.Fatalf("fired after only %d scrapes, want 3", i)
		}
		p.Tick()
		clk.advance(1)
	}
	if p.Healthy() {
		t.Fatal("stuck drain window did not fire")
	}
	alerts := p.Alerts()
	last := alerts[len(alerts)-1]
	if last.Rule != "steer-epoch-drain" || !last.Firing {
		t.Fatalf("alerts = %+v, want steer-epoch-drain firing", alerts)
	}
}

// TestEveryWatchdogFiresAndClears drives every rule of the four shipped sets,
// at DefaultSLO's thresholds, through the life a watchdog must be able to
// live: skipped while its series are absent, inert below the threshold,
// firing after For breaching ticks, resolved after one clean tick.
func TestEveryWatchdogFiresAndClears(t *testing.T) {
	const dt = 10 // seconds per tick: a rate of 0.4/s is a whole count
	slo := DefaultSLO()
	var rules []Rule
	for _, set := range [][]Rule{DefaultRules(slo), WireRules(slo), ClusterRules(slo), ControllerRules(slo)} {
		rules = append(rules, set...)
	}
	var fired []string
	for _, r := range rules {
		t.Run(r.Name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			clk := &fakeClock{}
			p := clk.pipeline(reg, nil, 8)
			p.AddRules(r)
			tick := func() RuleStatus {
				p.Tick()
				clk.advance(dt)
				return p.Status()[0]
			}
			if st := tick(); st.OK || st.Firing {
				t.Fatalf("evaluated with its series absent: %+v", st)
			}

			// feed writes one tick's worth of a series so that it reads x.
			feed := func(name string, src Source) func(x float64) {
				switch {
				case strings.HasSuffix(name, ".p99"):
					h := reg.Histogram(strings.TrimSuffix(name, ".p99"), []float64{1e-4, 1e-3, 1e-2})
					return func(x float64) { h.Observe(x) }
				case src == Value:
					g := reg.Gauge(name)
					return func(x float64) { g.Set(int64(math.Round(x))) }
				default: // Rate
					c := reg.Counter(name).Shard()
					return func(x float64) { c.Add(uint64(math.Round(x * dt))) }
				}
			}
			num := feed(r.Num, r.NumSrc)
			set := num
			if r.Combine == Ratio {
				den := feed(r.Den, r.DenSrc)
				set = func(v float64) { num(v * 1000); den(1000) }
			}
			// Above: 0 is inert, twice the threshold (or 1 over a zero one)
			// breaches. Below: the threshold is inert, half of it breaches.
			inert, breach := 0.0, max(2*r.Threshold, 1)
			if r.Op == Below {
				inert, breach = r.Threshold, r.Threshold/2
			}

			streak := max(r.For, 1) // AddRules reads a For of 0 as 1
			set(inert)
			tick() // a rate's first point warms up
			for i := 0; i <= streak; i++ {
				set(inert)
				if st := tick(); !st.OK || st.Firing || st.Streak != 0 {
					t.Fatalf("inert tick %d: %+v", i, st)
				}
			}
			for i := 1; i <= streak; i++ {
				set(breach)
				if st := tick(); st.Firing != (i == streak) || st.Streak != i {
					t.Fatalf("breaching tick %d of %d: %+v", i, streak, st)
				}
			}
			set(inert)
			if st := tick(); st.Firing {
				t.Fatalf("clean tick left it firing: %+v", st)
			}
			alerts := p.Alerts()
			if len(alerts) != 2 || alerts[0].Rule != r.Name || !alerts[0].Firing || alerts[1].Firing {
				t.Fatalf("alert log = %+v, want %s firing then resolved", alerts, r.Name)
			}
			fired = append(fired, r.Name)
		})
	}
	want := []string{
		"vip-availability", "smux-headroom", "smux-latency-p99",
		"hmux-host-occupancy", "hmux-ecmp-occupancy", "hmux-tunnel-occupancy",
		"nmux-table-occupancy", "smux-overlay-occupancy", "steer-epoch-drain",
		"wire-drops",
		"cluster-node-down", "fleet-vip-availability", "cluster-smux-share",
		"cluster-nmux-skew", "cluster-overlay-skew", "cluster-steer-drain",
		"controller-leader-flap", "controller-epoch-stall", "delta-log-lag",
	}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired and cleared %q, want %q", fired, want)
	}
}

// TestAlertLogKeepsNewest: the alert ring holds the newest 256 transitions,
// and Alerts returns them oldest first.
func TestAlertLogKeepsNewest(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("load")
	clk := &fakeClock{}
	p := clk.pipeline(reg, nil, 8)
	p.AddRules(Rule{Name: "flap", Num: "load", NumSrc: Value, Op: Above, Threshold: 0})
	const transitions = 300
	for i := 0; i < transitions; i++ {
		g.Set(int64(1 - i%2)) // fire, resolve, fire, …
		p.Tick()
		clk.advance(1)
	}
	alerts := p.Alerts()
	if len(alerts) != alertLog {
		t.Fatalf("%d alerts retained, want %d", len(alerts), alertLog)
	}
	for i, a := range alerts {
		k := transitions - alertLog + i // the transition's tick
		if a.Time != float64(k) || a.Firing != (k%2 == 0) {
			t.Fatalf("alert %d = %+v, want transition %d", i, a, k)
		}
	}
}
