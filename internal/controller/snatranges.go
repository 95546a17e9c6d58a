package controller

import (
	"errors"
	"fmt"

	"duet/internal/packet"
)

// SNAT port-range management (§5.2): every DIP of a VIP gets disjoint source
// port ranges, because two DIPs allocating the same (VIP, port) pair would
// collide on the inbound response 5-tuple. The controller owns the VIP's
// port space and hands out blocks on demand; a host agent that exhausts its
// blocks simply asks for another.

// Errors returned by the range allocator.
var (
	ErrPortSpaceExhausted = errors.New("controller: VIP SNAT port space exhausted")
	ErrUnknownDIPForSNAT  = errors.New("controller: DIP does not back this VIP")
)

// SNATBlockSize is the number of ports in one handed-out block.
const SNATBlockSize = 1024

// snatSpace tracks one VIP's ephemeral port space.
type snatSpace struct {
	next   uint32 // next unallocated port
	limit  uint32 // exclusive upper bound
	blocks map[packet.Addr][][2]uint16
}

// SNATRanges is the controller-side allocator.
type SNATRanges struct {
	spaces map[packet.Addr]*snatSpace
}

// NewSNATRanges creates an empty allocator. The ephemeral range
// [32768, 65536) of each VIP is carved into SNATBlockSize blocks.
func NewSNATRanges() *SNATRanges {
	return &SNATRanges{spaces: make(map[packet.Addr]*snatSpace)}
}

// Allocate hands the next free block of the VIP's port space to dip.
func (s *SNATRanges) Allocate(vip, dip packet.Addr) (lo, hi uint16, err error) {
	sp, ok := s.spaces[vip]
	if !ok {
		sp = &snatSpace{next: 32768, limit: 65536, blocks: make(map[packet.Addr][][2]uint16)}
		s.spaces[vip] = sp
	}
	if sp.next+SNATBlockSize > sp.limit {
		return 0, 0, ErrPortSpaceExhausted
	}
	lo = uint16(sp.next)
	hi = uint16(sp.next + SNATBlockSize - 1)
	sp.next += SNATBlockSize
	sp.blocks[dip] = append(sp.blocks[dip], [2]uint16{lo, hi})
	return lo, hi, nil
}

// Release returns all of a DIP's blocks (e.g. when the DIP is removed). The
// port space is not compacted — released blocks are not reissued —
// mirroring the conservative behaviour needed to avoid collisions with
// in-flight connections.
func (s *SNATRanges) Release(vip, dip packet.Addr) {
	if sp, ok := s.spaces[vip]; ok {
		delete(sp.blocks, dip)
	}
}

// AllocateSNATRange is the controller entry point used by host agents: it
// validates that dip backs vip, allocates a block, and returns it. Wire it
// to a hostagent.SNAT with AssignRange(lo, hi).
func (ct *Controller) AllocateSNATRange(vip, dip packet.Addr) (lo, hi uint16, err error) {
	v, ok := ct.Cluster.VIP(vip)
	if !ok {
		return 0, 0, fmt.Errorf("controller: %w", ErrUnknownDIPForSNAT)
	}
	backs := false
	for _, b := range v.Backends {
		if b.Addr == dip {
			backs = true
			break
		}
	}
	if !backs {
		return 0, 0, ErrUnknownDIPForSNAT
	}
	if ct.snat == nil {
		ct.snat = NewSNATRanges()
	}
	return ct.snat.Allocate(vip, dip)
}

// ReleaseSNATRanges frees a DIP's blocks (called by RemoveDIP).
func (ct *Controller) ReleaseSNATRanges(vip, dip packet.Addr) {
	if ct.snat != nil {
		ct.snat.Release(vip, dip)
	}
}
