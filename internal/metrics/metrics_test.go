package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFQuantiles(t *testing.T) {
	var c []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		c = append(c, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {1, 100}, {0.5, 51}, {-1, 1}, {2, 100},
	} {
		if q := Quantile(c, tc.p); q != tc.want {
			t.Errorf("Quantile(1..100, %v) = %v, want %v", tc.p, q, tc.want)
		}
	}
	if m := Mean(c); m != 50.5 {
		t.Fatalf("mean = %v", m)
	}
	// The rank is the one nearest p·(n−1), halves rounding up — the rule
	// every EXPERIMENTS.md number was produced with: the median of four
	// samples is the third, not the second.
	if q := Quantile([]float64{1, 2, 3, 4}, 0.5); q != 3 {
		t.Fatalf("median of 1..4 = %v, want 3", q)
	}
}

func TestCDFEmpty(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Mean(nil)) {
		t.Fatal("no samples should be NaN")
	}
}

// TestCDFAddAfterQuery is how the figures use Quantile: append, ask, append
// more, ask again. The input is neither required to be sorted nor reordered.
func TestCDFAddAfterQuery(t *testing.T) {
	c := []float64{5, 3, 1}
	if q := Quantile(c, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if c[0] != 5 || c[1] != 3 || c[2] != 1 {
		t.Fatalf("Quantile reordered its input: %v", c)
	}
	c = append(c, 100)
	if q := Quantile(c, 1); q != 100 {
		t.Fatalf("q1 after append = %v", q)
	}
}

// TestCDFPointsMonotone: the points of the empirical CDF a figure prints
// (fig 1a's p10/p50/p90/p99 row) never decrease with p, whatever the input.
func TestCDFPointsMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		for _, v := range raw {
			if math.IsNaN(v) {
				return true
			}
		}
		prev := math.Inf(-1)
		for i := 1; i <= 20 && len(raw) > 0; i++ {
			x := Quantile(raw, float64(i)/20)
			if x < prev {
				return false
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSummarize is the summary a figure's table row makes of a sample set.
func TestSummarize(t *testing.T) {
	var c []float64
	for i := 1; i <= 1000; i++ {
		c = append(c, float64(i))
	}
	if p90, p99, max := Quantile(c, 0.9), Quantile(c, 0.99), Quantile(c, 1); p90 != 900 || p99 != 990 || max != 1000 {
		t.Fatalf("p90 %v p99 %v max %v, want 900 990 1000", p90, p99, max)
	}
	if m := Mean(c); m != 500.5 {
		t.Fatalf("mean = %v", m)
	}
}

func TestTimeSeriesWindowAndBin(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 10; i++ {
		ts.Add(float64(i), float64(i*10))
	}
	w := ts.Window(2, 5)
	if len(w) != 3 || w[0] != 20 || w[2] != 40 {
		t.Fatalf("window = %v", w)
	}
	bins := ts.Bin(0, 10, 5)
	if len(bins) != 2 {
		t.Fatalf("bins = %v", bins)
	}
	if math.Abs(bins[0]-20) > 1e-9 || math.Abs(bins[1]-70) > 1e-9 {
		t.Fatalf("bin means = %v", bins)
	}
	// Empty bin → NaN.
	var sparse TimeSeries
	sparse.Add(0.5, 1)
	b := sparse.Bin(0, 2, 1)
	if !math.IsNaN(b[1]) {
		t.Fatal("empty bin should be NaN")
	}
	if ts.Bin(0, 0, 1) != nil || ts.Bin(0, 10, 0) != nil {
		t.Fatal("degenerate bins should be nil")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline %q", s)
	}
	if !strings.HasPrefix(s, "▁") || !strings.HasSuffix(s, "█") {
		t.Fatalf("sparkline shape %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
	flat := Sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline %q", flat)
	}
	withNaN := Sparkline([]float64{1, math.NaN(), 2})
	if []rune(withNaN)[1] != ' ' {
		t.Fatalf("NaN sparkline %q", withNaN)
	}
	allNaN := Sparkline([]float64{math.NaN()})
	if allNaN != " " {
		t.Fatalf("all-NaN sparkline %q", allNaN)
	}
}

func TestFormatters(t *testing.T) {
	if FmtDuration(150e-6) != "150µs" {
		t.Fatalf("%q", FmtDuration(150e-6))
	}
	if FmtDuration(2.5e-3) != "2.50ms" {
		t.Fatalf("%q", FmtDuration(2.5e-3))
	}
	if FmtDuration(1.5) != "1.50s" {
		t.Fatalf("%q", FmtDuration(1.5))
	}
	if FmtRate(10e12) != "10.00Tbps" {
		t.Fatalf("%q", FmtRate(10e12))
	}
	if FmtRate(3.6e9) != "3.60Gbps" {
		t.Fatalf("%q", FmtRate(3.6e9))
	}
	if FmtRate(5e6) != "5.00Mbps" {
		t.Fatalf("%q", FmtRate(5e6))
	}
	if FmtRate(100) != "100bps" {
		t.Fatalf("%q", FmtRate(100))
	}
}
