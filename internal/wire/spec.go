package wire

import (
	"encoding/json"
	"fmt"
	"os"

	"duet/internal/packet"
	"duet/internal/steer"
)

// Role names accepted in a cluster spec.
const (
	RoleController = "controller"
	RoleSMux       = "smux"
	RoleHostAgent  = "hostagent"
	RoleSwitch     = "switchagent"
	// RoleObs is the fleet observability aggregator: it polls every node's
	// /metrics and /trace.json, maintains merged cluster series and
	// cluster-scope watchdogs, and serves /cluster/* views. It touches no
	// dataplane traffic, so it needs only an HTTP endpoint.
	RoleObs = "obs"
)

// NodeSpec describes one duetd process.
type NodeSpec struct {
	Name string `json:"name"`
	Role string `json:"role"`
	// Self is the node's dataplane identity (dotted quad): the SMux/HMux
	// outer source address, or the host agent's host address. Required for
	// every role except controller.
	Self string `json:"self,omitempty"`
	// Data is the UDP dataplane endpoint (host:port). Frames whose outer
	// destination equals Self are delivered here.
	Data string `json:"data,omitempty"`
	// Control is the TCP control endpoint (host:port).
	Control string `json:"control,omitempty"`
	// HTTP is the observability endpoint (host:port) serving the obs plane.
	HTTP string `json:"http,omitempty"`
	// NMuxTable, on an smux node, fronts the software mux with a NIC match
	// table of this capacity (wildcard + flow entries). Zero leaves the NIC
	// tier off; only smux nodes may set it.
	NMuxTable int `json:"nmux_table,omitempty"`
}

// SelfAddr parses the node's dataplane identity.
func (n *NodeSpec) SelfAddr() (packet.Addr, error) {
	if n.Self == "" {
		return 0, fmt.Errorf("wire: node %s (%s) has no self address", n.Name, n.Role)
	}
	return packet.ParseAddr(n.Self)
}

// BackendSpec is one VIP backend in the spec.
type BackendSpec struct {
	Addr   string `json:"addr"`
	Weight uint32 `json:"weight,omitempty"`
}

// VIPSpec is one VIP in the spec. Backend addresses double as host
// addresses: in the wire world each DIP is served by the host-agent node
// whose Self equals the backend address (one DIP per host, the simplest
// production shape).
type VIPSpec struct {
	Addr     string        `json:"addr"`
	Backends []BackendSpec `json:"backends"`
	// Nic marks the VIP for the NIC match-table tier: the controller also
	// programs it into every smux node with nmux_table > 0. The SMux copy
	// stays (it is the miss backstop).
	Nic bool `json:"nic,omitempty"`
	// Mode is the VIP's SMux consistency mode: "stateful" (default),
	// "stateless", or "hybrid" (see internal/steer).
	Mode string `json:"mode,omitempty"`
	// SMuxOnly keeps the VIP out of the switch hardware tables: the
	// controller still programs every smux, but switch agents never learn
	// it, so traffic arriving at a switch takes the HMux-miss fallback to
	// the software tier. This is the paper's "VIP assigned to SMuxes"
	// placement, and it is deliberately excluded from Version() — flipping
	// it changes where the controller pushes, not what a receiver holds.
	SMuxOnly bool `json:"smux_only,omitempty"`
}

// ClusterSpec is the static JSON description of a multi-process duetd
// deployment: who runs where, and the VIP population the controller pushes.
type ClusterSpec struct {
	Nodes []NodeSpec `json:"nodes"`
	VIPs  []VIPSpec  `json:"vips"`
	// ResyncMillis is the controller's anti-entropy interval: every peer gets
	// a sync round this often (and on every epoch) — heartbeat-probed when it
	// is idle or its epoch is unknown and, if its applied epoch lags the
	// delta log's head, shipped the missing deltas (or the snapshot recovery
	// push if it fell behind the compaction horizon) — which is what heals a
	// restarted (blank) mux or host agent. Default 2000.
	ResyncMillis int `json:"resync_ms,omitempty"`
	// LeaseMillis is the controller leadership lease: the leader heartbeats
	// every peer controller at a third of it, and a standby that has not
	// heard a heartbeat for one lease starts a takeover. Default 2000.
	LeaseMillis int `json:"lease_ms,omitempty"`
	// DeltaTail is how many epoch deltas the controller's log retains before
	// compacting into its base snapshot (the delta/snapshot recovery
	// boundary). 0 selects the internal/delta default (64).
	DeltaTail int `json:"delta_tail,omitempty"`
	// ChurnMillis > 0 enables the deterministic config-churn driver: the
	// leading controller advances the config epoch this often, mutating
	// backend weights of a ChurnFrac fraction of VIPs. The mutation is a
	// pure function of (ChurnSeed, epoch, prior state), so a standby that
	// takes over mid-run continues the exact same epoch sequence.
	ChurnMillis int `json:"churn_ms,omitempty"`
	// ChurnSeed keys the churn driver's deterministic mutations.
	ChurnSeed int64 `json:"churn_seed,omitempty"`
	// ChurnFrac is the fraction of VIPs mutated per churn epoch (default
	// 0.2; at least one VIP when any exist).
	ChurnFrac float64 `json:"churn_frac,omitempty"`
	// ScrapeMillis is every node's obs scrape interval. Default 1000.
	ScrapeMillis int `json:"scrape_ms,omitempty"`
	// HealthMillis is the host agents' health-report interval. Default 1000.
	HealthMillis int `json:"health_ms,omitempty"`
	// TraceEvery is the mux tiers' cross-process trace sampling rate: a
	// switch agent or smux originates a trace for one in this many untraced
	// frames (rounded up to a power of two). 0 means the default 1024;
	// negative disables origination.
	TraceEvery int `json:"trace_every,omitempty"`
	// ClusterPollMillis is the obs role's fleet poll interval. Default 1000.
	ClusterPollMillis int `json:"cluster_poll_ms,omitempty"`
}

// DefaultTraceEvery is the cross-process trace sampling rate when the spec
// does not set one: roughly one journey per thousand packets, cheap enough
// to leave on in production.
const DefaultTraceEvery = 1024

// traceEvery resolves the spec's TraceEvery knob for a mux-tier dataplane
// (0 for non-originating roles is applied by the caller).
func (s *ClusterSpec) traceEvery() int {
	switch {
	case s.TraceEvery < 0:
		return 0
	case s.TraceEvery == 0:
		return DefaultTraceEvery
	default:
		return s.TraceEvery
	}
}

// LoadSpec reads and validates a cluster spec file.
func LoadSpec(path string) (*ClusterSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s ClusterSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("wire: parse spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec for the mistakes that would otherwise surface as
// confusing runtime failures.
func (s *ClusterSpec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("wire: spec has no nodes")
	}
	names := make(map[string]bool, len(s.Nodes))
	selfs := make(map[string]string)
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Name == "" {
			return fmt.Errorf("wire: node %d has no name", i)
		}
		if names[n.Name] {
			return fmt.Errorf("wire: duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		switch n.Role {
		case RoleController:
			if n.Control == "" {
				return fmt.Errorf("wire: controller %s needs a control endpoint", n.Name)
			}
		case RoleObs:
			if n.HTTP == "" {
				return fmt.Errorf("wire: obs node %s needs an http endpoint", n.Name)
			}
			if n.Self != "" || n.Data != "" || n.Control != "" {
				return fmt.Errorf("wire: obs node %s is HTTP-only; drop its self/data/control endpoints", n.Name)
			}
		case RoleSMux, RoleHostAgent, RoleSwitch:
			if _, err := n.SelfAddr(); err != nil {
				return err
			}
			if n.Data == "" {
				return fmt.Errorf("wire: node %s needs a data endpoint", n.Name)
			}
			if prev, dup := selfs[n.Self]; dup {
				return fmt.Errorf("wire: nodes %s and %s share self address %s", prev, n.Name, n.Self)
			}
			selfs[n.Self] = n.Name
		default:
			return fmt.Errorf("wire: node %s has unknown role %q", n.Name, n.Role)
		}
		if n.NMuxTable < 0 {
			return fmt.Errorf("wire: node %s has negative nmux_table", n.Name)
		}
		if n.NMuxTable > 0 && n.Role != RoleSMux {
			return fmt.Errorf("wire: node %s (%s) sets nmux_table; only smux nodes host a NIC table", n.Name, n.Role)
		}
	}
	if s.DeltaTail < 0 {
		return fmt.Errorf("wire: negative delta_tail")
	}
	if s.ChurnMillis < 0 {
		return fmt.Errorf("wire: negative churn_ms")
	}
	if s.ChurnFrac < 0 || s.ChurnFrac > 1 {
		return fmt.Errorf("wire: churn_frac %v outside [0,1]", s.ChurnFrac)
	}
	for _, v := range s.VIPs {
		if _, err := packet.ParseAddr(v.Addr); err != nil {
			return err
		}
		if len(v.Backends) == 0 {
			return fmt.Errorf("wire: VIP %s has no backends", v.Addr)
		}
		for _, b := range v.Backends {
			if _, err := packet.ParseAddr(b.Addr); err != nil {
				return err
			}
		}
		if _, err := steer.ParseMode(v.Mode); err != nil {
			return fmt.Errorf("wire: VIP %s: %w", v.Addr, err)
		}
	}
	return nil
}

// Node looks a node up by name.
func (s *ClusterSpec) Node(name string) (*NodeSpec, bool) {
	for i := range s.Nodes {
		if s.Nodes[i].Name == name {
			return &s.Nodes[i], true
		}
	}
	return nil, false
}

// Controllers returns every controller node in spec order. The order is the
// election priority: the first controller leads at bootstrap, and on leader
// death standbys take over lowest-index-first.
func (s *ClusterSpec) Controllers() []*NodeSpec {
	var out []*NodeSpec
	for i := range s.Nodes {
		if s.Nodes[i].Role == RoleController {
			out = append(out, &s.Nodes[i])
		}
	}
	return out
}

// HostMap builds the forwarding map every dataplane node needs: outer
// destination address → UDP data endpoint. It covers every node with a
// self address, so SMux→host, SMux→switch and switch→host forwarding all
// resolve through one lookup.
func (s *ClusterSpec) HostMap() map[packet.Addr]string {
	m := make(map[packet.Addr]string, len(s.Nodes))
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Self == "" || n.Data == "" {
			continue
		}
		if a, err := n.SelfAddr(); err == nil {
			m[a] = n.Data
		}
	}
	return m
}
