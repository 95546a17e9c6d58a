package wire

// The config-replication data model: projecting a ClusterSpec's VIP
// population into the internal/delta state the controller replicates, and
// the deterministic churn driver that advances it.

import (
	"fmt"
	"math/rand"
	"sort"

	"duet/internal/delta"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/steer"
)

// specState projects the spec's VIP population into a delta.State at the
// given epoch: the leading controller's bootstrap config (epoch 1), from
// which every later epoch derives by churn or operator mutation. It refuses
// what no peer could take: a VIP listed twice, a backend listed twice in
// one VIP (the delta codec carries a VIP's backends strictly sorted), and a
// VIP the service rules refuse (no backends, or one at the zero address).
func specState(s *ClusterSpec, epoch uint64) (*delta.State, error) {
	st := delta.NewState()
	st.Epoch = epoch
	for i := range s.VIPs {
		v := &s.VIPs[i]
		addr, err := packet.ParseAddr(v.Addr)
		if err != nil {
			return nil, err
		}
		mode, err := steer.ParseMode(v.Mode)
		if err != nil {
			return nil, fmt.Errorf("wire: VIP %s: %w", v.Addr, err)
		}
		if _, dup := st.VIPs[addr]; dup {
			return nil, fmt.Errorf("wire: duplicate VIP %s in spec", v.Addr)
		}
		vs := &delta.VIPState{
			Addr:   addr,
			Mode:   mode,
			Tier:   delta.TierHMux,
			Switch: delta.Unassigned,
		}
		if v.Nic {
			vs.Flags |= delta.FlagNic
		}
		if v.SMuxOnly {
			vs.Tier = delta.TierSMux
		}
		for _, b := range v.Backends {
			ba, err := packet.ParseAddr(b.Addr)
			if err != nil {
				return nil, err
			}
			w := b.Weight
			if w == 0 {
				w = 1
			}
			vs.Backends = append(vs.Backends, delta.Backend{Addr: ba, Weight: w})
		}
		if err := (&service.VIP{Addr: addr, Backends: vs.Backends}).Validate(); err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
		sort.Slice(vs.Backends, func(a, b int) bool { return vs.Backends[a].Addr < vs.Backends[b].Addr })
		for j := 1; j < len(vs.Backends); j++ {
			if vs.Backends[j].Addr == vs.Backends[j-1].Addr {
				return nil, fmt.Errorf("wire: VIP %s lists backend %s twice", v.Addr, vs.Backends[j].Addr)
			}
		}
		st.VIPs[addr] = vs
	}
	return st, nil
}

// churnMutate advances s to the next epoch with a deterministic mutation
// keyed by (seed, next epoch): it rotates the backend weights of a frac
// fraction of VIPs (at least one). Weight rotation is a real config change
// — it produces DIP-weight delta ops and reprograms muxes — but never moves
// a VIP between tiers or flips its mode. It does open drain windows: an
// SMux node sets each touched VIP's entry afresh (steer.OpSet), which
// changes slots, so every epoch opens a steer.DefaultDrainWindow on every
// SMux node and a steady churn keeps one open. Determinism is what makes
// controller takeover seamless: a promoted standby computes the exact delta
// the dead leader would have.
func churnMutate(s *delta.State, seed int64, frac float64) {
	next := s.Epoch + 1
	rng := rand.New(rand.NewSource(seed ^ int64(next*0x9e3779b97f4a7c15)))
	if frac <= 0 {
		frac = 0.2
	}
	addrs := s.Addrs()
	n := int(float64(len(addrs))*frac + 0.5)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n && len(addrs) > 0; i++ {
		v := s.VIPs[addrs[rng.Intn(len(addrs))]]
		for j := range v.Backends {
			v.Backends[j].Weight = 1 + v.Backends[j].Weight%8
		}
	}
	s.Epoch = next
}
