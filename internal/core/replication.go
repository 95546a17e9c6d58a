package core

import (
	"slices"

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
// ECMPs across them. It is AssignToHMux with more than one switch: the place
// is one record, so RemoveBackend reaches every replica and AddBackend,
// RemoveVIP and FailSwitch treat a replica like any home.
func (c *Cluster) AssignReplicated(addr packet.Addr, switches []topology.SwitchID) error {
	return c.assign(addr, switches, true)
}

// Replicas returns the switches currently holding a VIP.
func (c *Cluster) Replicas(addr packet.Addr) []topology.SwitchID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.hmuxAt[addr].sws)
}

// WithdrawReplicas removes all replicas of a VIP, returning it to the SMux
// backstop.
func (c *Cluster) WithdrawReplicas(addr packet.Addr) error {
	return c.WithdrawFromHMux(addr)
}
