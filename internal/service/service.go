// Package service defines the VIP→DIP mapping types shared by every Duet
// component: the controller distributes these, and HMuxes, SMuxes and host
// agents all program their tables from them.
package service

import (
	"fmt"

	"duet/internal/packet"
)

// Backend is one DIP (or host IP, in virtualized clusters) behind a VIP,
// with its WCMP weight (1 = equal share; paper §5.2 "Heterogeneity among
// servers").
type Backend struct {
	Addr   packet.Addr
	Weight uint32
}

// PortRule maps one destination port of a VIP to its own backend set
// (paper §5.2 "Port-based load balancing", Figure 8).
type PortRule struct {
	Port     uint16
	Backends []Backend
}

// maxBackends is the most entries one backend set may list: a resolution
// slot names its backend by a 16-bit index (internal/steer's Entry).
const maxBackends = 1 << 16

// VIP is the full configuration of one virtual IP.
type VIP struct {
	Addr     packet.Addr
	Backends []Backend  // default backend set
	Ports    []PortRule // optional per-port overrides
}

// Validate checks the configuration is self-consistent.
func (v *VIP) Validate() error {
	if v.Addr.IsZero() {
		return fmt.Errorf("service: VIP address must be set")
	}
	if len(v.Backends) == 0 && len(v.Ports) == 0 {
		return fmt.Errorf("service: VIP %s has no backends", v.Addr)
	}
	if err := checkBackends(v.Backends); err != nil {
		return fmt.Errorf("service: VIP %s %w", v.Addr, err)
	}
	seen := make(map[uint16]bool)
	for _, pr := range v.Ports {
		if len(pr.Backends) == 0 {
			return fmt.Errorf("service: VIP %s port %d has no backends", v.Addr, pr.Port)
		}
		if err := checkBackends(pr.Backends); err != nil {
			return fmt.Errorf("service: VIP %s port %d %w", v.Addr, pr.Port, err)
		}
		if seen[pr.Port] {
			return fmt.Errorf("service: VIP %s has duplicate rule for port %d", v.Addr, pr.Port)
		}
		seen[pr.Port] = true
	}
	return nil
}

// checkBackends refuses a backend set that a slot index cannot name, and a
// backend at the zero address: no host serves it, yet it would get its
// share of the slots, and no DIP removal could take it out again.
func checkBackends(bs []Backend) error {
	if len(bs) > maxBackends {
		return fmt.Errorf("lists %d backends, more than %d", len(bs), maxBackends)
	}
	for _, b := range bs {
		if b.Addr.IsZero() {
			return fmt.Errorf("lists a backend at the zero address")
		}
	}
	return nil
}
