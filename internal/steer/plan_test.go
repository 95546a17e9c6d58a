package steer

import (
	"fmt"
	"testing"

	"duet/internal/packet"
	"duet/internal/service"
)

// TestPlanTakesOutOnlyRemovals: a table takes DIPs out of a VIP it keeps in
// place only when dropping them is all that changed. Removals alone give the
// removed DIPs' ops in list order; a removal beside a reweigh or an add sets
// the VIP afresh; a removal beside a mode change is the removals and an
// OpMode. Beside a flags or tier change — the VIP joining or leaving one
// table — each table that keeps the VIP takes the removals in place, the
// one that gains it a set, the one that loses it a removal. A VIP added is
// a set, one removed a removal, one unchanged nothing.
func TestPlanTakesOutOnlyRemovals(t *testing.T) {
	dip := func(d byte) packet.Addr { return packet.AddrFrom4(100, 0, 0, d) }
	cfg := func(edit func(v *service.VIP), dips ...byte) *service.VIP {
		v := &service.VIP{Addr: vipAddr}
		for _, d := range dips {
			v.Backends = append(v.Backends, service.Backend{Addr: dip(d), Weight: 1})
		}
		if edit != nil {
			edit(v)
		}
		return v
	}
	from := cfg(nil, 2, 4, 6, 8, 10)
	held := func(v *service.VIP) Side { return Side{VIP: v, Mode: ModeStateful} }
	hybrid := func(v *service.VIP) Side { return Side{VIP: v, Mode: ModeHybrid} }
	rm := func(ds ...byte) []Op {
		var ops []Op
		for _, d := range ds {
			ops = append(ops, Op{Kind: OpRemoveDIP, Addr: vipAddr, DIP: dip(d)})
		}
		return ops
	}
	set := func(v *service.VIP, m Mode) []Op { return []Op{{Kind: OpSet, Addr: vipAddr, VIP: v, Mode: m}} }
	kept := cfg(nil, 2, 4, 8, 10) // 6 dropped
	reweighed := cfg(func(v *service.VIP) { v.Backends[1].Weight = 2 }, 2, 4, 8, 10)
	addBefore, addBetween, addAfter := cfg(nil, 1, 2, 4, 8, 10), cfg(nil, 2, 4, 5, 8, 10), cfg(nil, 4, 6, 8, 10, 11)
	ported := cfg(func(v *service.VIP) {
		v.Ports = []service.PortRule{{Port: 443, Backends: v.Backends[:1]}}
	}, 2, 4, 8, 10)
	twice := cfg(nil, 2, 4, 2)
	for _, tc := range []struct {
		name          string
		before, after Side
		want          []Op
	}{
		{"removals only", held(from), held(cfg(nil, 4, 8)), rm(2, 6, 10)},
		{"removal and reweigh", held(from), held(reweighed), set(reweighed, ModeStateful)},
		{"removal and add before", held(from), held(addBefore), set(addBefore, ModeStateful)},
		{"removal and add between", held(from), held(addBetween), set(addBetween, ModeStateful)},
		{"removal and add after", held(from), held(addAfter), set(addAfter, ModeStateful)},
		{"removal and mode", held(from), hybrid(kept), append(rm(6), Op{Kind: OpMode, Addr: vipAddr, Mode: ModeHybrid})},
		{"removal and flags: the SMux keeps the VIP", held(from), held(kept), rm(6)},
		{"removal and flags: the NIC gains it", Side{}, held(kept), set(kept, ModeStateful)},
		{"removal and flags: the switch keeps it", held(from), held(kept), rm(6)},
		{"removal and tier: the SMux keeps the VIP", held(from), held(kept), rm(6)},
		{"removal and tier: the switch loses it", held(from), Side{}, []Op{{Kind: OpRemove, Addr: vipAddr}}},
		{"removal and tier: the NIC never held it", Side{}, Side{}, nil},
		{"VIP added", Side{}, hybrid(from), set(from, ModeHybrid)},
		{"VIP removed", held(from), Side{}, []Op{{Kind: OpRemove, Addr: vipAddr}}},
		{"unchanged", held(from), held(from), nil},
		{"an equal copy", held(from), held(cfg(nil, 2, 4, 6, 8, 10)), nil},
		{"mode alone", held(from), hybrid(from), []Op{{Kind: OpMode, Addr: vipAddr, Mode: ModeHybrid}}},
		{"removal and a port rule", held(from), held(ported), set(ported, ModeStateful)},
		{"a DIP listed twice loses its trailing copy", held(twice), held(cfg(nil, 2, 4)), set(cfg(nil, 2, 4), ModeStateful)},
		{"a DIP listed twice loses its leading copy", held(twice), held(cfg(nil, 4, 2)), rm(2)},
	} {
		got := Plan([]Op{{Kind: OpRemove, Addr: 1}}, tc.before, tc.after)[1:] // Plan appends
		if fmt.Sprint(opsOf(got)) != fmt.Sprint(opsOf(tc.want)) {
			t.Errorf("%s: ops %v, want %v", tc.name, opsOf(got), opsOf(tc.want))
		}
		for i, op := range got {
			if op.Kind == OpSet && op.VIP != tc.after.VIP {
				t.Errorf("%s: op %d sets %p, not the new config %p", tc.name, i, op.VIP, tc.after.VIP)
			}
		}
	}
}

// opsOf renders ops without their VIP pointers, for comparison.
func opsOf(ops []Op) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = fmt.Sprintf("%d %s %s %s", op.Kind, op.Addr, op.DIP, op.Mode)
	}
	return out
}

// TestPlanKeepsNoAllocation: a table whose VIP keeps its config and mode
// costs Plan nothing, whether it is handed the same record or an equal
// copy — what Place pays for every target that only moves.
func TestPlanKeepsNoAllocation(t *testing.T) {
	v := &service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2", "100.0.0.3")}
	cp := &service.VIP{Addr: vipAddr, Backends: backends("100.0.0.1", "100.0.0.2", "100.0.0.3")}
	for _, after := range []*service.VIP{v, cp} {
		if n := testing.AllocsPerRun(100, func() {
			if ops := Plan(nil, Side{VIP: v}, Side{VIP: after}); len(ops) != 0 {
				t.Fatalf("ops %v for an unchanged VIP", ops)
			}
		}); n != 0 {
			t.Fatalf("Plan allocated %.0f times for an unchanged VIP", n)
		}
	}
}
