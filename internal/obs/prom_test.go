package obs

import (
	"bytes"
	"strings"
	"testing"

	"duet/internal/telemetry"
)

// TestPrometheusRoundTrip renders a populated registry and parses it back,
// checking names, types, values, and the cumulative histogram encoding.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("hmux.packets").Shard().Add(123456)
	reg.Gauge("smux.conns_total").Set(42)
	h := reg.Histogram("core.deliver.hop.smux.seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	types, samples, err := parsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, buf.String())
	}

	byName := func(name string) []promSample {
		var out []promSample
		for _, s := range samples {
			if s.name == name {
				out = append(out, s)
			}
		}
		return out
	}

	if types["duet_hmux_packets"] != "counter" {
		t.Fatalf("duet_hmux_packets type = %q, want counter", types["duet_hmux_packets"])
	}
	if s := byName("duet_hmux_packets"); len(s) != 1 || s[0].value != 123456 {
		t.Fatalf("duet_hmux_packets = %+v", s)
	}
	if types["duet_smux_conns_total"] != "gauge" {
		t.Fatalf("duet_smux_conns_total type = %q, want gauge", types["duet_smux_conns_total"])
	}
	if s := byName("duet_smux_conns_total"); len(s) != 1 || s[0].value != 42 {
		t.Fatalf("duet_smux_conns_total = %+v", s)
	}

	hn := "duet_core_deliver_hop_smux_seconds"
	if types[hn] != "histogram" {
		t.Fatalf("%s type = %q, want histogram", hn, types[hn])
	}
	buckets := byName(hn + "_bucket")
	if len(buckets) != 4 {
		t.Fatalf("%d buckets, want 4 (3 bounds + +Inf)", len(buckets))
	}
	wantCum := map[string]float64{"0.001": 2, "0.01": 2, "0.1": 3, "+Inf": 4}
	var prev float64 = -1
	for _, b := range buckets {
		le := b.labels["le"]
		if want, ok := wantCum[le]; !ok || b.value != want {
			t.Fatalf("bucket le=%q = %g, want %g", le, b.value, want)
		}
		if b.value < prev {
			t.Fatalf("bucket counts not cumulative at le=%q", le)
		}
		prev = b.value
	}
	if s := byName(hn + "_count"); len(s) != 1 || s[0].value != 4 {
		t.Fatalf("%s_count = %+v, want 4", hn, s)
	}
	if s := byName(hn + "_sum"); len(s) != 1 || s[0].value != 5.051 {
		t.Fatalf("%s_sum = %+v, want 5.051", hn, s)
	}

	// Every sample's base name must carry a TYPE declaration.
	for _, s := range samples {
		base := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := types[strings.TrimSuffix(base, suf)]; ok && t == "histogram" {
				base = strings.TrimSuffix(base, suf)
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no TYPE declaration", s.name)
		}
	}
}
