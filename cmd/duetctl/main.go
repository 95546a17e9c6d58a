// Command duetctl is an interactive operator console for a live (simulated)
// Duet cluster: create VIPs, place them on switches, inject failures, probe
// the datapath, and inspect switch table occupancy — the controller's
// operations from §5 and §6 exposed one command at a time.
//
// Usage:
//
//	duetctl                 # interactive REPL
//	echo "demo" | duetctl   # scripted
//
// Commands:
//
//	vip add <vip> <dip> [dip...]     configure a VIP on the SMux backstop
//	vip rm <vip>                     remove a VIP everywhere
//	vip ls                           list VIPs and their current home
//	assign <vip> <switch>            program a VIP onto an HMux
//	assign <vip> nic                 program a VIP into the NIC match tables
//	withdraw <vip>                   pull a VIP back to the SMuxes
//	dip add <vip> <dip>              add a DIP (bounces the VIP via SMux)
//	dip rm <vip> <dip>               remove a DIP (resilient, in place)
//	fail <switch> | recover <switch> kill / restore a switch
//	mode <vip> <stateful|stateless|hybrid>  set a VIP's consistency mode
//	modes                            per-VIP mode, steer epoch, overlay size
//	probe <vip> [n]                  send n flows, show the DIP split
//	tables <switch>                  switch table occupancy
//	switches                         list switches
//	top [events|url]                 live counters + recent trace events
//	serve [addr]                     expose this cluster's observability HTTP
//	demo                             run a scripted tour
//	help | quit
//
// Subcommands (non-interactive):
//
//	duetctl serve [-addr host:port] [-interval 1s] [-traffic pps]
//	    demo cluster + background traffic + observability HTTP server
//	duetctl watch [-interval 2s] [-n polls] http://host:port
//	    poll a serve endpoint: health, key rates, alert transitions
//	duetctl journeys [-n 10] http://obs-host:port
//	    stitched cross-process packet journeys from a duetd obs node
//	duetctl cluster-top http://obs-host:port
//	    fleet in one screen: node health, merged counters, latency CDFs
//	duetctl cluster-alerts http://obs-host:port
//	    cluster-scope watchdog transition log
//	duetctl ha [-v] controller-host:control-port
//	    controller replication state: term, leader, epoch, replicated VIPs
package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"duet"
	"duet/internal/obs"
	"duet/internal/topology"
)

type console struct {
	cluster *duet.Cluster
	ctl     *duet.Controller // see controller
	out     *bufio.Writer
	obs     *obs.Pipeline // set once by the REPL serve command
}

// controller returns the console's one controller, reporting into the
// cluster's registry and recorder so `top` shows what it did.
func (c *console) controller() *duet.Controller {
	if c.ctl == nil {
		c.ctl = duet.NewController(c.cluster, duet.DefaultAssignOptions())
		reg, rec := c.cluster.Telemetry()
		c.ctl.SetTelemetry(reg, rec)
	}
	return c.ctl
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "watch":
			runWatch(os.Args[2:])
			return
		case "journeys":
			runJourneys(os.Stdout, os.Args[2:])
			return
		case "cluster-top":
			runClusterTop(os.Stdout, os.Args[2:])
			return
		case "cluster-alerts":
			runClusterAlerts(os.Stdout, os.Args[2:])
			return
		case "ha":
			runHA(os.Stdout, os.Args[2:])
			return
		}
	}
	cluster, err := duet.NewCluster(duet.ClusterConfig{
		Topology: duet.TopologyConfig{
			Containers:       2,
			ToRsPerContainer: 4,
			AggsPerContainer: 2,
			Cores:            4,
			ServersPerToR:    10,
		},
		NumSMuxes:     3,
		Aggregate:     duet.MustParsePrefix("10.0.0.0/8"),
		NMuxTableSize: 2048,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c := &console{cluster: cluster, out: bufio.NewWriter(os.Stdout)}
	defer c.out.Flush()

	fmt.Fprintln(c.out, "duetctl — Duet cluster console (type 'help')")
	c.out.Flush()
	sc := bufio.NewScanner(os.Stdin)
	interactive := isTerminal()
	for {
		if interactive {
			fmt.Fprint(c.out, "duet> ")
		}
		c.out.Flush()
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !interactive {
			fmt.Fprintf(c.out, "duet> %s\n", line)
		}
		if quit := c.exec(line); quit {
			return
		}
	}
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func (c *console) exec(line string) (quit bool) {
	args := strings.Fields(line)
	cmd := args[0]
	args = args[1:]
	defer c.out.Flush()
	switch cmd {
	case "quit", "exit":
		return true
	case "help":
		c.help()
	case "vip":
		c.vip(args)
	case "assign":
		c.assign(args)
	case "withdraw":
		c.withdraw(args)
	case "dip":
		c.dip(args)
	case "fail":
		c.failRecover(args, true)
	case "recover":
		c.failRecover(args, false)
	case "mode":
		c.mode(args)
	case "modes":
		c.modes()
	case "probe":
		c.probe(args)
	case "tables":
		c.tables(args)
	case "switches":
		c.switches()
	case "top":
		c.top(args)
	case "serve":
		c.serve(args)
	case "demo":
		c.demo()
	default:
		fmt.Fprintf(c.out, "unknown command %q (try 'help')\n", cmd)
	}
	return false
}

func (c *console) help() {
	fmt.Fprint(c.out, `commands:
  vip add <vip> <dip> [dip...]   vip rm <vip>   vip ls
  assign <vip> <switch|nic>      withdraw <vip>
  dip add <vip> <dip>            dip rm <vip> <dip>
  fail <switch>                  recover <switch>
  mode <vip> <stateful|stateless|hybrid>   modes
  probe <vip> [flows]            tables <switch|nic>
  switches                       top [events|url]
  serve [addr]                   demo
  quit
switch names look like tor-0-1, agg-1-0, core-2; "nic" is the NIC tier
`)
}

func (c *console) parseAddr(s string) (duet.Addr, bool) {
	a, err := duet.ParseAddr(s)
	if err != nil {
		fmt.Fprintf(c.out, "bad address %q\n", s)
		return 0, false
	}
	return a, true
}

func (c *console) findSwitch(name string) (duet.SwitchID, bool) {
	for _, sw := range c.cluster.Topo.Switches {
		if sw.Name == name {
			return sw.ID, true
		}
	}
	fmt.Fprintf(c.out, "no switch %q (see 'switches')\n", name)
	return 0, false
}

func (c *console) vip(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(c.out, "vip add|rm|ls ...")
		return
	}
	switch args[0] {
	case "add":
		if len(args) < 3 {
			fmt.Fprintln(c.out, "vip add <vip> <dip> [dip...]")
			return
		}
		vip, ok := c.parseAddr(args[1])
		if !ok {
			return
		}
		var backends []duet.Backend
		for _, d := range args[2:] {
			a, ok := c.parseAddr(d)
			if !ok {
				return
			}
			backends = append(backends, duet.Backend{Addr: a, Weight: 1})
		}
		if err := c.cluster.AddVIP(&duet.VIP{Addr: vip, Backends: backends}); err != nil {
			fmt.Fprintln(c.out, "error:", err)
			return
		}
		fmt.Fprintf(c.out, "VIP %s configured with %d DIPs (on SMux backstop)\n", vip, len(backends))
	case "rm":
		if len(args) != 2 {
			fmt.Fprintln(c.out, "vip rm <vip>")
			return
		}
		vip, ok := c.parseAddr(args[1])
		if !ok {
			return
		}
		if err := c.cluster.RemoveVIP(vip); err != nil {
			fmt.Fprintln(c.out, "error:", err)
			return
		}
		fmt.Fprintf(c.out, "VIP %s removed\n", vip)
	case "ls":
		vips := c.cluster.VIPs()
		if len(vips) == 0 {
			fmt.Fprintln(c.out, "no VIPs configured")
			return
		}
		for _, vip := range vips {
			v, _ := c.cluster.VIP(vip)
			home := "SMux backstop"
			if sw, ok := c.cluster.HomeOf(vip); ok {
				home = "HMux " + c.cluster.Topo.Switch(sw).Name
			} else if c.cluster.NMuxHosted(vip) {
				home = "NMux (NIC tier)"
			}
			fmt.Fprintf(c.out, "  %-15s %2d DIPs  %s\n", vip, len(v.Backends), home)
		}
	default:
		fmt.Fprintln(c.out, "vip add|rm|ls ...")
	}
}

func (c *console) assign(args []string) {
	if len(args) != 2 {
		fmt.Fprintln(c.out, "assign <vip> <switch|nic>")
		return
	}
	vip, ok := c.parseAddr(args[0])
	if !ok {
		return
	}
	t, where := duet.Target{Addr: vip, NIC: true}, "the NIC match tables"
	if args[1] != "nic" {
		sw, ok := c.findSwitch(args[1])
		if !ok {
			return
		}
		t, where = duet.Target{Addr: vip, Switches: []duet.SwitchID{sw}}, "HMux "+args[1]+" (/32 announced)"
	}
	if err := c.cluster.Place(t); err != nil {
		fmt.Fprintln(c.out, "error:", err)
		return
	}
	fmt.Fprintf(c.out, "VIP %s now served by %s\n", vip, where)
}

func (c *console) withdraw(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(c.out, "withdraw <vip>")
		return
	}
	vip, ok := c.parseAddr(args[0])
	if !ok {
		return
	}
	if err := c.cluster.Place(duet.Target{Addr: vip}); err != nil {
		fmt.Fprintln(c.out, "error:", err)
		return
	}
	fmt.Fprintf(c.out, "VIP %s withdrawn to the SMux backstop\n", vip)
}

func (c *console) dip(args []string) {
	if len(args) != 3 {
		fmt.Fprintln(c.out, "dip add|rm <vip> <dip>")
		return
	}
	vip, ok := c.parseAddr(args[1])
	if !ok {
		return
	}
	dip, ok := c.parseAddr(args[2])
	if !ok {
		return
	}
	ctl := c.controller()
	switch args[0] {
	case "add":
		if err := ctl.AddDIP(vip, duet.Backend{Addr: dip, Weight: 1}); err != nil {
			fmt.Fprintln(c.out, "error:", err)
			return
		}
		fmt.Fprintf(c.out, "DIP %s added; VIP bounced through SMuxes (§5.2)\n", dip)
	case "rm":
		if err := ctl.RemoveDIP(vip, dip); err != nil {
			fmt.Fprintln(c.out, "error:", err)
			return
		}
		fmt.Fprintf(c.out, "DIP %s removed resiliently in place\n", dip)
	default:
		fmt.Fprintln(c.out, "dip add|rm <vip> <dip>")
	}
}

func (c *console) failRecover(args []string, fail bool) {
	if len(args) != 1 {
		fmt.Fprintln(c.out, "fail|recover <switch>")
		return
	}
	sw, ok := c.findSwitch(args[0])
	if !ok {
		return
	}
	if fail {
		c.controller().HandleSwitchFailure(sw)
		fmt.Fprintf(c.out, "switch %s DOWN; its VIPs fell back to the SMuxes\n", args[0])
	} else {
		c.cluster.RecoverSwitch(sw)
		fmt.Fprintf(c.out, "switch %s UP (tables empty until VIPs are re-assigned)\n", args[0])
	}
}

// mode sets one VIP's steering mode on every SMux.
func (c *console) mode(args []string) {
	if len(args) != 2 {
		fmt.Fprintln(c.out, "mode <vip> <stateful|stateless|hybrid>")
		return
	}
	vip, ok := c.parseAddr(args[0])
	if !ok {
		return
	}
	m, err := duet.ParseSteerMode(args[1])
	if err != nil {
		fmt.Fprintln(c.out, "error:", err)
		return
	}
	if err := c.cluster.SetVIPMode(vip, m); err != nil {
		fmt.Fprintln(c.out, "error:", err)
		return
	}
	fmt.Fprintf(c.out, "VIP %s now %s (takes effect on the next packet of every flow)\n", vip, m)
}

// modes prints every VIP's steering mode plus the shared steer-table state
// each SMux carries: generation epoch, pinned connections, and the hybrid
// overlay's occupancy against its bound.
func (c *console) modes() {
	vips := c.cluster.VIPs()
	if len(vips) == 0 {
		fmt.Fprintln(c.out, "no VIPs configured")
		return
	}
	for _, vip := range vips {
		m, ok := c.cluster.VIPMode(vip)
		if !ok {
			continue
		}
		fmt.Fprintf(c.out, "  %-15s %s\n", vip, m)
	}
	for i, sm := range c.cluster.SMuxes {
		st := sm.ConnStats()
		drain := ""
		if sm.Steer().DrainActive() {
			drain = "  [epoch drain open]"
		}
		fmt.Fprintf(c.out, "  smux-%d: epoch %d  conns %d (%d KB)  overlay %d/%d%s\n",
			i, sm.Epoch(), st.Entries, st.Bytes/1024, st.Overlay, st.OverlayCap, drain)
	}
}

func (c *console) probe(args []string) {
	if len(args) < 1 {
		fmt.Fprintln(c.out, "probe <vip> [flows]")
		return
	}
	vip, ok := c.parseAddr(args[0])
	if !ok {
		return
	}
	n := 1000
	if len(args) > 1 {
		if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
			n = v
		}
	}
	counts := map[string]int{}
	path := ""
	for i := 0; i < n; i++ {
		pkt := duet.BuildTCP(duet.FiveTuple{
			Src: duet.MustParseAddr("30.0.0.1") + duet.Addr(i), Dst: vip,
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: 6,
		}, duet.TCPSyn, nil)
		d, err := c.cluster.Deliver(pkt)
		if err != nil {
			fmt.Fprintln(c.out, "error:", err)
			return
		}
		counts[d.DIP.String()]++
		if path == "" {
			var hops []string
			for _, h := range d.Hops() {
				hops = append(hops, h.Kind+"("+h.Node+")")
			}
			path = strings.Join(hops, " → ")
		}
	}
	fmt.Fprintf(c.out, "%d flows via %s\n", n, path)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(c.out, "  %-15s %5d (%.1f%%)\n", k, counts[k], 100*float64(counts[k])/float64(n))
	}
}

func (c *console) tables(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(c.out, "tables <switch|nic>")
		return
	}
	if args[0] == "nic" {
		c.nicTables()
		return
	}
	sw, ok := c.findSwitch(args[0])
	if !ok {
		return
	}
	st := c.cluster.HMuxes[sw].Stats()
	fmt.Fprintf(c.out, "%s: host %d/%d  ecmp %d/%d  tunnel %d/%d  (VIPs %d, TIPs %d)\n",
		args[0], st.HostUsed, st.HostCap, st.ECMPUsed, st.ECMPCap,
		st.TunnelUsed, st.TunnelCap, st.VIPs, st.TIPs)
}

// nicTables prints per-host NIC match-table occupancy.
func (c *console) nicTables() {
	if len(c.cluster.NMuxes) == 0 {
		fmt.Fprintln(c.out, "NIC tier disabled (NMuxTableSize 0)")
		return
	}
	for i, nm := range c.cluster.NMuxes {
		st := nm.Stats()
		fmt.Fprintf(c.out, "nmux-%d (%s): %d/%d entries (%.0f%%)  wildcard %d  flows %d  VIPs %d\n",
			i, nm.Self(), st.Used, st.Cap, 100*float64(st.Used)/float64(st.Cap),
			st.Wildcard, st.Flows, st.VIPs)
	}
}

// top prints the cluster's live telemetry: every registered counter, gauge
// and histogram, followed by the most recent flight-recorder events. With a
// URL argument it renders the same view from a remote duetctl serve.
func (c *console) top(args []string) {
	nEvents := 10
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil && v >= 0 {
			nEvents = v
		} else {
			topRemote(c.out, args[0], nEvents)
			return
		}
	}
	reg, rec := c.cluster.Telemetry()
	fmt.Fprintln(c.out, "-- tiers --")
	hmux := reg.Counter("core.deliver.tier.hmux").Value()
	nmuxHits := reg.Counter("core.deliver.tier.nmux").Value()
	nmuxMiss := reg.Counter("core.deliver.tier.nmux_miss").Value()
	smuxHits := reg.Counter("core.deliver.tier.smux").Value()
	total := hmux + nmuxHits + smuxHits
	share := func(n uint64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	fmt.Fprintf(c.out, "  hmux %d (%.1f%%)  nmux %d (%.1f%%)  smux %d (%.1f%%)  nmux-miss %d\n",
		hmux, share(hmux), nmuxHits, share(nmuxHits), smuxHits, share(smuxHits), nmuxMiss)
	for i, nm := range c.cluster.NMuxes {
		st := nm.Stats()
		fmt.Fprintf(c.out, "  nmux-%d occupancy %d/%d (%.0f%%)  flows %d\n",
			i, st.Used, st.Cap, 100*float64(st.Used)/float64(st.Cap), st.Flows)
	}
	fmt.Fprintln(c.out, "-- steer --")
	for _, md := range duet.SteerModes() {
		//duet:allow metriclabel fixed three-mode set read back for display
		delivered := reg.Counter("core.deliver.mode." + md.String()).Value()
		fmt.Fprintf(c.out, "  %-9s %d delivered\n", md, delivered)
	}
	for i, sm := range c.cluster.SMuxes {
		st := sm.ConnStats()
		fmt.Fprintf(c.out, "  smux-%d epoch %d  conns %d  overlay %d/%d\n",
			i, sm.Epoch(), st.Entries, st.Overlay, st.OverlayCap)
	}
	fmt.Fprintln(c.out, "-- metrics --")
	if err := reg.WriteText(c.out); err != nil {
		fmt.Fprintln(c.out, "error:", err)
		return
	}
	evs := rec.Snapshot()
	if len(evs) > nEvents {
		evs = evs[len(evs)-nEvents:]
	}
	fmt.Fprintf(c.out, "-- trace (%d of %d recorded events) --\n", len(evs), rec.Recorded())
	for _, e := range evs {
		fmt.Fprintf(c.out, "  %s\n", e.String())
	}
}

// serve starts the observability HTTP server over the console's own cluster
// in the background, so operator commands and the exposition share state.
func (c *console) serve(args []string) {
	if c.obs != nil {
		fmt.Fprintln(c.out, "observability server already running")
		return
	}
	addr := "localhost:8080"
	if len(args) > 0 {
		addr = args[0]
	}
	reg, rec := c.cluster.Telemetry()
	p := obs.New(obs.Config{Registry: reg, Recorder: rec, Windows: 300})
	p.AddCollector(c.cluster.Collect)
	p.AddRules(obs.DefaultRules(obs.DefaultSLO())...)
	p.Start(time.Second)
	c.obs = p
	go func() {
		if err := obs.NewServer(p).ListenAndServe(addr); err != nil {
			fmt.Fprintln(os.Stderr, "obs server:", err)
		}
	}()
	fmt.Fprintf(c.out, "observability server on http://%s (scraping every 1s)\n", addr)
	printEndpoints(c.out, addr)
}

func (c *console) switches() {
	byKind := map[topology.Kind][]string{}
	for _, sw := range c.cluster.Topo.Switches {
		status := ""
		if !c.cluster.SwitchUp(sw.ID) {
			status = " [DOWN]"
		}
		byKind[sw.Kind] = append(byKind[sw.Kind], sw.Name+status)
	}
	for _, k := range []topology.Kind{topology.Core, topology.Agg, topology.ToR} {
		fmt.Fprintf(c.out, "%-5s %s\n", k.String()+":", strings.Join(byKind[k], " "))
	}
}

func (c *console) demo() {
	script := []string{
		"vip add 10.0.0.1 100.0.0.1 100.0.0.2 100.0.0.3",
		"mode 10.0.0.1 hybrid",
		"modes",
		"probe 10.0.0.1 600",
		"assign 10.0.0.1 agg-0-0",
		"tables agg-0-0",
		"probe 10.0.0.1 600",
		"fail agg-0-0",
		"probe 10.0.0.1 600",
		"recover agg-0-0",
		"assign 10.0.0.1 nic",
		"tables nic",
		"probe 10.0.0.1 600",
		"withdraw 10.0.0.1",
		"assign 10.0.0.1 core-1",
		"probe 10.0.0.1 600",
		"vip ls",
		"top",
	}
	for _, line := range script {
		fmt.Fprintf(c.out, "\nduet> %s\n", line)
		c.exec(line)
	}
}
