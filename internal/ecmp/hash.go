// Package ecmp is the 5-tuple flow hash every mux tier selects a DIP by;
// the slot table it indexes — WCMP weighted fill and Broadcom-style
// resilient removal — is internal/steer's Entry.
//
// A single hash function is shared by every HMux and SMux in the deployment
// (paper §3.3.1): because all muxes agree on hash(tuple) → DIP, existing
// connections survive a VIP migrating between muxes or failing over from an
// HMux to the SMux backstop.
package ecmp

import "duet/internal/packet"

// Hash computes the flow hash of a 5-tuple. It is a 64-bit FNV-1a over the
// tuple fields, chosen because it is cheap, stateless and identical across
// every component — the property Duet's connection-preserving migration
// depends on, not the specific hash family.
//
//duet:hotpath
func Hash(t packet.FiveTuple) uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix32(h, uint32(t.Src))
	h = fnvMix32(h, uint32(t.Dst))
	h = fnvMix(h, byte(t.SrcPort>>8))
	h = fnvMix(h, byte(t.SrcPort))
	h = fnvMix(h, byte(t.DstPort>>8))
	h = fnvMix(h, byte(t.DstPort))
	h = fnvMix(h, t.Proto)
	return fmix64(h)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one byte into an FNV-1a state.
func fnvMix(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// fnvMix32 folds a big-endian uint32 into an FNV-1a state.
func fnvMix32(h uint64, v uint32) uint64 {
	h = fnvMix(h, byte(v>>24))
	h = fnvMix(h, byte(v>>16))
	h = fnvMix(h, byte(v>>8))
	return fnvMix(h, byte(v))
}

// fmix64 is the murmur3 finalizer. FNV-1a alone leaves detectable structure
// in the low bits for low-entropy inputs (sequential addresses/ports), which
// would skew slot-table selection; the finalizer fully avalanches the state.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
