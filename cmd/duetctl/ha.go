package main

// duetctl ha — inspect a controller's replication state over the control
// channel: send MsgSnapshotRequest and render the term, last-known leader,
// head epoch and the replicated VIP table. Works against leader and standby
// alike (a standby answers from its tailed log), so diffing two controllers'
// output is the operator's "is the standby warm?" check.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"duet/internal/delta"
	"duet/internal/telemetry"
	"duet/internal/wire"
)

func runHA(out io.Writer, args []string) {
	fs := flag.NewFlagSet("ha", flag.ExitOnError)
	verbose := fs.Bool("v", false, "also print the replicated VIP table")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: duetctl ha [-v] controller-host:control-port")
		os.Exit(2)
	}

	client := wire.DialControl(fs.Arg(0), telemetry.NewRegistry())
	defer client.Close()
	ack, err := client.CallE(&wire.Envelope{Type: wire.MsgSnapshotRequest, Name: "duetctl"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ha:", err)
		os.Exit(1)
	}
	d, err := delta.Decode(ack.Delta)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ha: bad snapshot:", err)
		os.Exit(1)
	}
	st := delta.NewState()
	if err := d.Apply(st); err != nil {
		fmt.Fprintln(os.Stderr, "ha: snapshot does not apply:", err)
		os.Exit(1)
	}

	leader := ack.Name
	if leader == "" {
		leader = "(none yet)"
	}
	fmt.Fprintf(out, "term   %d\n", ack.Term)
	fmt.Fprintf(out, "leader %s\n", leader)
	fmt.Fprintf(out, "epoch  %d\n", ack.Epoch)
	fmt.Fprintf(out, "vips   %d\n", len(st.VIPs))
	if !*verbose {
		return
	}
	for _, a := range st.Addrs() { // ascending
		v := st.VIPs[a]
		tier := v.Tier.String()
		if v.Flags&delta.FlagNic != 0 {
			tier += "+nic"
		}
		fmt.Fprintf(out, "  %-15s %-9s backends=%d\n", a, tier, len(v.Backends))
	}
}
