package bgp

import (
	"math/rand"
	"sort"
	"testing"

	"duet/internal/packet"
)

// refTable is a brute-force reference: a flat list of (prefix, nexthop,
// visibleAt, withdrawnAt) records with O(n) longest-prefix-match lookup.
// The property test drives Table and refTable with identical random op
// sequences and compares lookups at random times and addresses.
type refRoute struct {
	p           packet.Prefix
	nh          NodeID
	visibleAt   float64
	withdrawnAt float64
}

type refTable struct {
	routes []*refRoute
}

func (r *refTable) announce(p packet.Prefix, nh NodeID, at float64) {
	for _, rt := range r.routes {
		if rt.p == p && rt.nh == nh {
			if at < rt.visibleAt {
				rt.visibleAt = at
			}
			rt.withdrawnAt = 1e18
			return
		}
	}
	r.routes = append(r.routes, &refRoute{p: p, nh: nh, visibleAt: at, withdrawnAt: 1e18})
}

func (r *refTable) withdraw(p packet.Prefix, nh NodeID, at float64) {
	for _, rt := range r.routes {
		if rt.p == p && rt.nh == nh && at < rt.withdrawnAt {
			rt.withdrawnAt = at
		}
	}
}

func (r *refTable) withdrawAll(nh NodeID, at float64) {
	for _, rt := range r.routes {
		if rt.nh == nh && at < rt.withdrawnAt {
			rt.withdrawnAt = at
		}
	}
}

func (r *refTable) lookup(addr packet.Addr, now float64) ([]NodeID, bool) {
	bestBits := -1
	var nhs []NodeID
	for _, rt := range r.routes {
		if !(now >= rt.visibleAt && now < rt.withdrawnAt) || addr&packet.Mask(rt.p.Bits) != rt.p.Addr {
			continue
		}
		if rt.p.Bits > bestBits {
			bestBits = rt.p.Bits
			nhs = nhs[:0]
		}
		if rt.p.Bits == bestBits {
			nhs = append(nhs, rt.nh)
		}
	}
	if bestBits < 0 {
		return nil, false
	}
	sort.Slice(nhs, func(i, j int) bool { return nhs[i] < nhs[j] })
	return nhs, true
}

func TestTableMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	prefixes := []packet.Prefix{
		packet.MustParsePrefix("10.0.0.0/8"),
		packet.MustParsePrefix("10.1.0.0/16"),
		packet.MustParsePrefix("10.1.2.0/24"),
		packet.MustParsePrefix("10.1.2.3/32"),
		packet.MustParsePrefix("10.1.2.4/32"),
		packet.MustParsePrefix("10.128.0.0/9"),
		packet.MustParsePrefix("0.0.0.0/0"),
	}
	addrs := []packet.Addr{
		packet.MustParseAddr("10.1.2.3"),
		packet.MustParseAddr("10.1.2.4"),
		packet.MustParseAddr("10.1.2.99"),
		packet.MustParseAddr("10.1.99.99"),
		packet.MustParseAddr("10.200.0.1"),
		packet.MustParseAddr("192.168.1.1"),
	}

	for trial := 0; trial < 20; trial++ {
		tb := NewTable()
		ref := &refTable{}
		for step := 0; step < 120; step++ {
			at := rng.Float64() * 100
			nh := NodeID(rng.Intn(6))
			p := prefixes[rng.Intn(len(prefixes))]
			switch rng.Intn(4) {
			case 0, 1:
				tb.Announce(p, nh, at)
				ref.announce(p, nh, at)
			case 2:
				tb.Withdraw(p, nh, at)
				ref.withdraw(p, nh, at)
			case 3:
				tb.WithdrawAll(nh, at)
				ref.withdrawAll(nh, at)
			}
			// Compare lookups at a few random times/addresses.
			for k := 0; k < 4; k++ {
				now := rng.Float64() * 120
				addr := addrs[rng.Intn(len(addrs))]
				gotNHs, _, gotOK := tb.Lookup(addr, now)
				wantNHs, wantOK := ref.lookup(addr, now)
				if gotOK != wantOK {
					t.Fatalf("trial %d step %d: Lookup(%s, %.2f) ok=%v want %v",
						trial, step, addr, now, gotOK, wantOK)
				}
				if len(gotNHs) != len(wantNHs) {
					t.Fatalf("trial %d step %d: Lookup(%s, %.2f) = %v want %v",
						trial, step, addr, now, gotNHs, wantNHs)
				}
				for i := range gotNHs {
					if gotNHs[i] != wantNHs[i] {
						t.Fatalf("trial %d step %d: Lookup(%s, %.2f) = %v want %v",
							trial, step, addr, now, gotNHs, wantNHs)
					}
				}
			}
		}
	}
}
