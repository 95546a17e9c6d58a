package nmux

import (
	"duet/internal/packet"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/telemetry"
)

// Pair is one SMux server's host muxes, in the order a packet the fabric
// routes to the server meets them: the NIC table (nil while the tier is off)
// and, on its table miss, the SMux. It is the one implementation of that
// fall-through, which core.Cluster and a wire smux node both call. The two
// muxes share the server's address, the ECMP hash and the SMux's steer table,
// so the encap is the same byte for byte whichever of them serves a flow.
type Pair struct {
	NIC  *Mux
	SMux *smux.Mux
}

// PairTally is a run of the pair's packets' share of both muxes' per-packet
// counters, and PairCounters what it is flushed into (see hmux.Tally).
type PairTally struct {
	nic Tally
	sm  smux.Tally
}

type PairCounters struct {
	nic Counters
	sm  smux.Counters
}

// NewPairCounters claims the SMux's per-packet counters on reg, and the NIC
// table's when nic is set: a fleet without the tier exports no series for it.
func NewPairCounters(reg *telemetry.Registry, nic bool) PairCounters {
	c := PairCounters{sm: smux.NewCounters(reg)}
	if nic {
		c.nic = NewCounters(reg)
	}
	return c
}

// Flush adds t to the counters and zeroes it.
//
//duet:hotpath
func (c PairCounters) Flush(t *PairTally) {
	c.nic.Flush(&t.nic)
	c.sm.Flush(&t.sm)
}

// PairResult is what the pair did with a packet: the mux that served it
// (telemetry.TraceTierNMux or TraceTierSMux), the encap and, when the SMux
// served it, the steering mode that resolved it.
type PairResult struct {
	Tier   telemetry.TraceTier
	Encap  packet.Addr
	Packet []byte
	Mode   steer.Mode
}

// Parse verifies data through the pair's first stage, which counts a
// malformed packet as its own drop.
//
//duet:hotpath
func (p *Pair) Parse(data []byte) (packet.Flow, error) {
	if p.NIC != nil {
		return p.NIC.Parse(data)
	}
	return p.SMux.Parse(data)
}

// ProcessSampled runs a parsed packet through the pair (see
// Mux.ProcessSampled): the NIC table and, on ErrNotOurVIP — a fall-through,
// not a drop — the SMux. Any other NIC error is the NIC's drop and is
// returned. The packet is appended to out and counted in tally.
//
//duet:hotpath
func (p *Pair) ProcessSampled(data, out []byte, f packet.Flow, hash uint64, sampled bool, tally *PairTally) (PairResult, error) {
	if p.NIC != nil {
		res, err := p.NIC.ProcessSampled(data, out, f, hash, sampled, &tally.nic)
		if err == nil {
			return PairResult{Tier: telemetry.TraceTierNMux, Encap: res.Encap, Packet: res.Packet}, nil
		}
		if err != ErrNotOurVIP {
			return PairResult{}, err
		}
	}
	res, err := p.SMux.ProcessSampled(data, out, f, hash, sampled, &tally.sm)
	if err != nil {
		return PairResult{}, err
	}
	return PairResult{Tier: telemetry.TraceTierSMux, Encap: res.Encap, Packet: res.Packet, Mode: res.Mode}, nil
}
