package testbed

import (
	"testing"
)

// TestFloodDeliversEverything drives the byte-accurate harness through the
// parallel DeliverBatch path and checks that a quiescent cluster delivers
// every packet, on one worker and on several.
func TestFloodDeliversEverything(t *testing.T) {
	f, err := NewFlood(FloodConfig{NumVIPs: 8, DIPsPerVIP: 4})
	if err != nil {
		t.Fatal(err)
	}
	pkts := f.Packets(4000)
	for _, workers := range []int{1, 4} {
		st := f.Run(pkts, workers)
		if st.Failed != 0 {
			t.Fatalf("workers=%d: %d deliveries failed", workers, st.Failed)
		}
		if st.Delivered != len(pkts) {
			t.Fatalf("workers=%d: delivered %d of %d", workers, st.Delivered, len(pkts))
		}
	}
}
