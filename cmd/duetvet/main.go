// Command duetvet runs the repo's custom vet suite (internal/analysis)
// over the tree: the mechanical enforcement of the dataplane invariants
// — injectable clocks (noclock), zero-alloc/lock-free hot paths
// (hotpath), immutable epoch snapshots (snapshot), and constant-name
// telemetry registration (metriclabel) — and of the one rule about the
// module as a whole: every exported func or method under internal/ has a
// caller that is not a test (reach).
//
// Usage:
//
//	duetvet [-list] [packages]
//
// With no packages it checks ./... . Run it from the module root: reach
// reads the whole module and bench/ whatever packages are named, and
// reports on the named ones. Exit status is 1 when any finding
// is reported, so `make lint` and CI fail on a new violation. Findings
// are suppressed line by line with `//duet:allow <rule> <reason>`; see
// DESIGN.md "Enforced invariants". The suppressions are counted: the
// run ends with the number of //duet:allow directives per rule and in
// total (test files excluded), and with -max-allow N it fails when the
// total exceeds N — the ratchet `make lint` holds the tree to.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"duet/internal/analysis"
	"duet/internal/analysis/driver"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	maxAllow := flag.Int("max-allow", -1, "fail when the tree holds more than this many //duet:allow directives (negative: no limit)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: duetvet [-list] [-max-allow n] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.Suite() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	diags, allows, err := driver.Vet(".", driver.Patterns(flag.Args()), analysis.Suite(), "bench")
	if err != nil {
		fmt.Fprintf(os.Stderr, "duetvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	total, perRule := 0, make([]string, 0, len(allows))
	for rule, n := range allows {
		total += n
		perRule = append(perRule, fmt.Sprintf("%s %d", rule, n))
	}
	sort.Strings(perRule)
	fmt.Fprintf(os.Stderr, "duetvet: %d //duet:allow directive(s): %s\n", total, strings.Join(perRule, ", "))
	failed := len(diags) > 0
	if failed {
		fmt.Fprintf(os.Stderr, "duetvet: %d finding(s)\n", len(diags))
	}
	if *maxAllow >= 0 && total > *maxAllow {
		fmt.Fprintf(os.Stderr, "duetvet: that is over the budget of %d: the count may only fall — remove a suppression, do not raise the number\n", *maxAllow)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
