package wire

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/packet"
)

// BenchmarkWireDeliver measures end-to-end wire throughput on loopback: a
// client socket floods TCP SYNs at an SMux node, which encapsulates and
// forwards each one over UDP to a host-agent node, which decapsulates and
// counts the delivery. The metric of record is ns/pkt over *delivered*
// packets (UDP may drop under overload; drops must not flatter the number).
// Both nodes serve in bursts (recvmmsg, run to completion, one segmented
// sendmmsg per next hop), so what this measures is the per-packet cost left
// once syscall entry is amortised — and the sender goroutines' own
// write-per-datagram, which is not.
//
// The recorded gate for this path is bench/'s wire-fleet workload
// (ops_per_s, cpu_us_per_op, wire.send_ns, wire.recv_ns).
func BenchmarkWireDeliver(b *testing.B) {
	for _, senders := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			benchWireDeliver(b, senders)
		})
	}
}

func benchWireDeliver(b *testing.B, senders int) {
	spec := testClusterSpec(b)
	var nodes []*Node
	for _, name := range []string{"ctl", "smux-1", "host-1"} {
		n, err := StartNode(spec, name)
		if err != nil {
			b.Fatalf("StartNode %s: %v", name, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	sm, host := nodes[1], nodes[2]
	waitFor(b, "smux programmed", func() bool { return sm.Reg.Gauge("wire.vips").Value() >= 1 })
	waitFor(b, "host programmed", func() bool { return host.Reg.Gauge("wire.dips").Value() >= 1 })

	// Pre-frame a pool of distinct flows so the conn table sees realistic
	// variety without per-send packet building.
	const flows = 1024
	frames := make([][]byte, flows)
	for i := range frames {
		syn := packet.BuildTCP(packet.FiveTuple{
			Src:     packet.AddrFrom4(30, 0, byte(i>>8), byte(i)),
			Dst:     packet.MustParseAddr("10.0.0.1"),
			SrcPort: uint16(1024 + i),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}, packet.TCPSyn, nil)
		frames[i] = AppendFrame(nil, syn)
	}

	start := host.Delivered()
	target := start + uint64(b.N)
	var totalSent atomic.Uint64
	b.ResetTimer()
	t0 := time.Now()

	done := make(chan error, senders)
	for s := 0; s < senders; s++ {
		go func(s int) {
			conn, err := net.Dial("udp", spec.Nodes[1].Data)
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			for i, sent := s, 0; ; i++ {
				// Counter.Value sums shards; poll it per small batch, not
				// per packet.
				if sent%32 == 0 {
					if host.Delivered() >= target {
						break
					}
					// Flow control: keep the in-flight window under the
					// socket receive buffers so overrun drops stay rare — on a
					// loaded machine a dropped send is pure wasted work.
					// The wait is bounded: dropped datagrams never arrive,
					// and sending more is the retransmission.
					for w := 0; w < 50 && totalSent.Load() > host.Delivered()-start+512; w++ {
						time.Sleep(100 * time.Microsecond)
					}
				}
				if _, err := conn.Write(frames[i%flows]); err != nil {
					done <- err
					return
				}
				sent++
				totalSent.Add(1)
			}
			done <- nil
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(t0)
	b.StopTimer()

	delivered := host.Delivered() - start
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
	nsPerPkt := float64(elapsed.Nanoseconds()) / float64(delivered)
	b.ReportMetric(nsPerPkt, "ns/pkt")
	b.ReportMetric(float64(delivered)/elapsed.Seconds(), "pkts/s")
}
