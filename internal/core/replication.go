package core

import (
	"fmt"

	"duet/internal/bgp"
	"duet/internal/packet"
	"duet/internal/topology"
)

// VIP replication (paper §9 "Failover and Migration"): instead of relying
// solely on the SMux backstop, a VIP's table entries can be replicated on
// several HMuxes, all announcing the same /32. ECMP splits traffic across
// the replicas; when one dies, the survivors absorb its share with no SMux
// involvement and — because every replica uses the shared hash — no
// connection remaps. The paper left this as future work because the control
// plane gets more complex; here it is implemented so the trade-off can be
// measured (BenchmarkAblationReplication).

// AssignReplicated programs a VIP onto several switches at once. The VIP
// must currently be SMux-hosted. All replicas announce the /32; the fabric
// ECMPs across them.
func (c *Cluster) AssignReplicated(addr packet.Addr, switches []topology.SwitchID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vips[addr]
	if !ok {
		return ErrVIPUnknown
	}
	if len(switches) == 0 {
		return fmt.Errorf("core: no replica switches given")
	}
	if _, ok := c.hmuxAt[addr]; ok {
		return fmt.Errorf("core: VIP %s already on an HMux; withdraw first", addr)
	}
	if c.replicas[addr] != nil {
		return fmt.Errorf("core: VIP %s already replicated; withdraw first", addr)
	}
	seen := make(map[topology.SwitchID]bool, len(switches))
	for _, sw := range switches {
		if int(sw) < 0 || int(sw) >= len(c.HMuxes) {
			return ErrNoSuchSwitch
		}
		if !c.upLocked(sw) {
			return ErrSwitchDown
		}
		if seen[sw] {
			return fmt.Errorf("core: duplicate replica switch %d", sw)
		}
		seen[sw] = true
	}
	// Program all replicas; roll back on failure so the operation is atomic.
	var done []topology.SwitchID
	for _, sw := range switches {
		if err := c.HMuxes[sw].AddVIP(v); err != nil {
			for _, d := range done {
				_ = c.HMuxes[d].RemoveVIP(addr)
			}
			return err
		}
		done = append(done, sw)
	}
	at := c.rec.Now()
	for _, sw := range switches {
		c.Routes.Announce(packet.HostPrefix(addr), bgp.NodeID(sw), at)
	}
	c.replicas[addr] = append([]topology.SwitchID(nil), switches...)
	return nil
}

// Replicas returns the switches currently replicating a VIP.
func (c *Cluster) Replicas(addr packet.Addr) []topology.SwitchID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]topology.SwitchID(nil), c.replicas[addr]...)
}

// WithdrawReplicas removes all replicas of a VIP, returning it to the SMux
// backstop.
func (c *Cluster) WithdrawReplicas(addr packet.Addr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.withdrawReplicasLocked(addr)
}

// withdrawReplicasLocked is WithdrawReplicas for a caller that holds c.mu.
func (c *Cluster) withdrawReplicasLocked(addr packet.Addr) error {
	reps, ok := c.replicas[addr]
	if !ok {
		return ErrVIPUnknown
	}
	at := c.rec.Now()
	for _, sw := range reps {
		if c.upLocked(sw) {
			_ = c.HMuxes[sw].RemoveVIP(addr)
		}
		c.Routes.Withdraw(packet.HostPrefix(addr), bgp.NodeID(sw), at)
	}
	delete(c.replicas, addr)
	return nil
}

// dropReplicaOn removes bookkeeping for replicas on a failed switch.
func (c *Cluster) dropReplicaOn(sw topology.SwitchID) {
	for vip, reps := range c.replicas {
		kept := reps[:0]
		for _, r := range reps {
			if r != sw {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			delete(c.replicas, vip)
		} else {
			c.replicas[vip] = kept
		}
	}
}
