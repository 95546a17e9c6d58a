package analysis_test

import (
	"testing"

	"duet/internal/analysis"
	"duet/internal/analysis/analysistest"
)

func TestNoClockAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.NoClock}, "noclock")
}

func TestHotPathAnalyzer(t *testing.T) {
	// hotleaf first: facts flow dependency → dependent, same as the
	// real driver's go list -deps ordering.
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.HotPath}, "hotleaf", "hotpath")
}

func TestSnapshotAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.Snapshot}, "snapshot")
}

func TestMetricLabelAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.MetricLabel}, "telemetry", "metriclabel")
}

// TestReachAnalyzer: user comes second, so the interface lib.T satisfies is
// declared after lib was analyzed — the rule needs its post-pass.
func TestReachAnalyzer(t *testing.T) {
	allows := analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.NewReach()}, "reach/internal/lib", "reach/user")
	if allows["reach"] != 1 {
		t.Errorf("counted %d //duet:allow reach directives, want 1", allows["reach"])
	}
}

func TestSuite(t *testing.T) {
	suite := analysis.Suite()
	if len(suite) != 5 {
		t.Fatalf("Suite() has %d analyzers, want 5", len(suite))
	}
	seen := map[string]bool{}
	for _, a := range suite {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incompletely declared", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
