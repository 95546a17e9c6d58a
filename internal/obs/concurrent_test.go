package obs

import (
	"testing"

	"duet/internal/hmux"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/telemetry"
)

// TestDataplaneZeroAllocWithScraper is the concurrency half of the
// zero-alloc contract: the hardware-path dataplane chain must stay
// allocation-free while the scrape pipeline runs against the same registry.
// AllocsPerRun measures process-global mallocs, so this also proves the
// concurrent scrape ticks themselves allocate nothing after warm-up.
func TestDataplaneZeroAllocWithScraper(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1024)
	rec.SetSampleEvery(8)
	m := hmux.New(hmux.DefaultConfig(packet.MustParseAddr("172.16.0.1")))
	m.SetTelemetry(reg, rec, 1)
	vip := packet.MustParseAddr("10.0.0.1")
	err := m.AddVIP(&service.VIP{Addr: vip, Backends: []service.Backend{
		{Addr: packet.MustParseAddr("100.0.0.1"), Weight: 1},
		{Addr: packet.MustParseAddr("100.0.0.2"), Weight: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}

	p := New(Config{Registry: reg, Recorder: rec, Windows: 64})
	p.AddRules(DefaultRules(DefaultSLO())...)
	for i := 0; i < 3; i++ { // warm up the series list and histogram buffers
		p.Tick()
	}

	done := make(chan struct{})
	scraping := make(chan struct{})
	go func() {
		close(scraping)
		for {
			select {
			case <-done:
				return
			default:
				p.Tick()
			}
		}
	}()
	<-scraping
	defer close(done)

	pkt := packet.BuildTCP(packet.FiveTuple{
		Src: packet.MustParseAddr("30.0.0.1"), Dst: vip,
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.TCPSyn, make([]byte, 512))
	buf := make([]byte, 0, 2048)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := m.Process(pkt, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Process with concurrent scraper: %v allocs/op, want 0", allocs)
	}
	if ticks := p.Dump(1).Ticks; ticks < 3 {
		t.Fatalf("scraper ran %d ticks, expected it to be live", ticks)
	}
}
