package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// WriteText renders every registered metric, sorted by name, one per line:
//
//	counter   hmux.packets                    123456
//	gauge     smux.conns_total                1024
//	histogram core.deliver.hop.smux.seconds   count=12 sum=5.4e-05 p50=4.1e-06 p99=4.6e-06
//
// The output is stable across runs with the same metric values.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, c := range r.counters() {
		if _, err := fmt.Fprintf(w, "counter   %-40s %d\n", c.Name(), c.Value()); err != nil {
			return err
		}
	}
	for _, g := range r.gaugeList() {
		if _, err := fmt.Fprintf(w, "gauge     %-40s %d\n", g.Name(), g.Value()); err != nil {
			return err
		}
	}
	for _, h := range r.histList() {
		s := h.Snapshot()
		if _, err := fmt.Fprintf(w, "histogram %-40s count=%d sum=%.6g p50=%.6g p99=%.6g\n",
			h.Name(), s.Count, s.Sum, s.Quantile(0.5), s.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

// fmtAddr renders a host-byte-order IPv4 address (the dataplane's
// packet.Addr representation) as a dotted quad. Kept local so the telemetry
// package has no dependencies beyond the standard library.
func fmtAddr(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// String renders an event for trace output.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10.6fs #%-6d %-17s node=%d", e.Time, e.Seq, e.Kind, e.Node)
	switch e.Kind {
	case KindPacketIn:
		fmt.Fprintf(&b, " dst=%s len=%d", fmtAddr(e.A), e.Aux)
	case KindVIPLookup, KindDSR:
		fmt.Fprintf(&b, " vip=%s", fmtAddr(e.A))
	case KindECMPPick:
		how := "hashed"
		if e.Aux == 1 {
			how = "pinned"
		}
		fmt.Fprintf(&b, " vip=%s dip=%s %s", fmtAddr(e.A), fmtAddr(e.B), how)
	case KindEncap, KindTIPHop, KindDecap, KindSNATExhausted:
		fmt.Fprintf(&b, " vip=%s dst=%s", fmtAddr(e.A), fmtAddr(e.B))
	case KindDrop:
		fmt.Fprintf(&b, " dst=%s reason=%s", fmtAddr(e.A), DropReason(e.Aux))
	case KindBGPAnnounce, KindBGPWithdraw:
		fmt.Fprintf(&b, " prefix=%s/%d", fmtAddr(e.A), e.Aux)
	case KindTableProgram:
		fmt.Fprintf(&b, " vip=%s op=%d", fmtAddr(e.A), e.B)
		if e.B == 2 {
			fmt.Fprintf(&b, " dip=%s", fmtAddr(uint32(e.Aux)))
		}
	case KindMigrationStep:
		fmt.Fprintf(&b, " vip=%s step=%d", fmtAddr(e.A), e.Aux)
	case KindHealthTransition:
		state := "down"
		if e.Aux == 1 {
			state = "up"
		}
		fmt.Fprintf(&b, " dip=%s %s", fmtAddr(e.A), state)
	case KindSLOAlert:
		state := "resolved"
		if e.Aux == 1 {
			state = "firing"
		}
		fmt.Fprintf(&b, " rule=%d %s", e.A, state)
	case KindTraceHop:
		fmt.Fprintf(&b, " tier=%s dst=%s trace=%016x", TraceTier(e.A), fmtAddr(e.B), e.Aux)
	default:
		if e.A != 0 || e.B != 0 || e.Aux != 0 {
			fmt.Fprintf(&b, " a=%s b=%s aux=%d", fmtAddr(e.A), fmtAddr(e.B), e.Aux)
		}
	}
	return b.String()
}

// WriteTrace renders the recorder's current contents, oldest first.
func (r *Recorder) WriteTrace(w io.Writer) error {
	for _, e := range r.Snapshot() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// DropReason labels why a dataplane rejected a packet. The values are shared
// by the HMux, SMux and host-agent drop counters and carried in KindDrop
// events' Aux field.
type DropReason uint8

const (
	DropNone       DropReason = iota
	DropMalformed             // packet failed to decode or carried no 5-tuple
	DropUnknownVIP            // destination matches no programmed VIP/TIP
	DropNoBackend             // VIP has no live tunnel entry (empty ECMP group)
	DropEncapError            // encapsulation failed (buffer/length)
	DropNotLocal              // host agent: no local DIP serves the VIP

	// Wire-level reasons (internal/wire): the socket transport rejected a
	// datagram before it reached a mux or host agent.
	DropShortRead   // datagram shorter than its declared frame length
	DropBadFrame    // frame magic/version mismatch
	DropConnRefused // send failed with ECONNREFUSED (peer socket gone)
	DropBacklogFull // socket receive queue overflowed; the kernel discarded the datagram
	DropNoWireRoute // encap destination has no wire endpoint in the cluster spec
)

// String names the drop reason.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropMalformed:
		return "malformed"
	case DropUnknownVIP:
		return "unknown-vip"
	case DropNoBackend:
		return "no-tunnel-entry"
	case DropEncapError:
		return "encap-error"
	case DropNotLocal:
		return "not-local"
	case DropShortRead:
		return "short-read"
	case DropBadFrame:
		return "bad-frame"
	case DropConnRefused:
		return "conn-refused"
	case DropBacklogFull:
		return "backlog-full"
	case DropNoWireRoute:
		return "no-wire-route"
	}
	return "unknown"
}
