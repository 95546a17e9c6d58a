package duet

import (
	"duet/internal/assign"
	"duet/internal/controller"
	"duet/internal/core"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
	"duet/internal/topology"
	"duet/internal/workload"
)

// Re-exported core types. The aliases make the public API importable as a
// single package while the implementation stays modular.
type (
	// Addr is an IPv4 address.
	Addr = packet.Addr
	// Prefix is an IPv4 CIDR prefix.
	Prefix = packet.Prefix
	// FiveTuple identifies a flow.
	FiveTuple = packet.FiveTuple

	// VIP configures one virtual IP and its backends.
	VIP = service.VIP
	// Backend is one DIP behind a VIP.
	Backend = service.Backend
	// PortRule maps a destination port to its own backend set.
	PortRule = service.PortRule

	// Cluster is a fully wired Duet deployment.
	Cluster = core.Cluster
	// ClusterConfig sizes a Cluster.
	ClusterConfig = core.Config
	// Delivery is the result of pushing a packet through the datapath.
	Delivery = core.Delivery
	// Target is what Cluster.Place is to make of one VIP: where it is
	// served, its config, or its removal.
	Target = core.Target

	// Controller drives placement and migration over a Cluster.
	Controller = controller.Controller
	// AssignOptions parameterizes the placement engine.
	AssignOptions = assign.Options

	// TopologyConfig sizes the fabric.
	TopologyConfig = topology.Config
	// SwitchID identifies a fabric switch.
	SwitchID = topology.SwitchID

	// Workload is a VIP population with a traffic trace.
	Workload = workload.Workload
	// WorkloadConfig parameterizes trace generation.
	WorkloadConfig = workload.Config

	// SteerMode selects how the SMux keeps a VIP's connections consistent
	// across backend changes (see internal/steer).
	SteerMode = steer.Mode
)

// Per-VIP steering modes.
const (
	// ModeStateful pins every connection in the SMux connection table.
	ModeStateful = steer.ModeStateful
	// ModeStateless resolves every packet through the shared lookup table.
	ModeStateless = steer.ModeStateless
	// ModeHybrid is stateless plus a bounded overlay pinning only the
	// connections whose DIP would change across a table epoch.
	ModeHybrid = steer.ModeHybrid
)

// ParseSteerMode parses a mode name ("stateful", "stateless", "hybrid";
// empty means stateful).
func ParseSteerMode(s string) (SteerMode, error) { return steer.ParseMode(s) }

// SteerModes lists every steering mode.
func SteerModes() []SteerMode { return steer.Modes() }

// MustParseAddr parses a dotted-quad IPv4 address, panicking on error.
func MustParseAddr(s string) Addr { return packet.MustParseAddr(s) }

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return packet.ParseAddr(s) }

// MustParsePrefix parses an "a.b.c.d/len" prefix, panicking on error.
func MustParsePrefix(s string) Prefix { return packet.MustParsePrefix(s) }

// DefaultClusterConfig returns a scaled-down cluster ready for examples and
// experimentation.
func DefaultClusterConfig() ClusterConfig { return core.DefaultConfig() }

// NewCluster builds a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return core.New(cfg) }

// DefaultAssignOptions returns the paper's placement parameters (§4).
func DefaultAssignOptions() AssignOptions { return assign.DefaultOptions() }

// NewController creates the Duet controller over a cluster.
func NewController(c *Cluster, opts AssignOptions) *Controller {
	return controller.New(c, opts)
}

// GenerateWorkload builds a synthetic trace matched to the paper's
// production traffic (Figure 15).
func GenerateWorkload(cfg WorkloadConfig, c *Cluster) (*Workload, error) {
	return workload.Generate(cfg, c.Topo)
}

// DefaultWorkloadConfig returns trace-generation defaults.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// BuildUDP constructs a complete IPv4+UDP packet for a flow — handy for
// feeding Cluster.Deliver.
func BuildUDP(t FiveTuple, payload []byte) []byte { return packet.BuildUDP(t, payload) }

// BuildTCP constructs a complete IPv4+TCP packet for a flow.
func BuildTCP(t FiveTuple, flags uint8, payload []byte) []byte {
	return packet.BuildTCP(t, flags, payload)
}

// TCP flag bits for BuildTCP.
const (
	TCPFin = packet.TCPFin
	TCPSyn = packet.TCPSyn
	TCPRst = packet.TCPRst
	TCPPsh = packet.TCPPsh
	TCPAck = packet.TCPAck
)
