# Tier-1 verification for the repo (see ROADMAP.md). `make check` is what CI
# and pre-merge runs: gofmt, vet, build, the full test suite under the race
# detector, the zero-allocation gates, and the runnable examples.

GO ?= go

.PHONY: check fmt build test vet lint vuln fuzz-smoke race allocs examples bench loc

check: fmt lint build race allocs examples

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# duetvet: the repo's own go/analysis suite (internal/analysis). Enforces
# the dataplane invariants mechanically: no ambient clock reads (noclock),
# zero-alloc/lock-free //duet:hotpath closures (hotpath), copy-on-write
# discipline on atomic.Pointer views (snapshot), constant-name telemetry
# registration (metriclabel), and a non-test caller for every exported func
# or method under internal/ (reach: it reads the whole module and bench/,
# which is why bench/ must be on disk here). See DESIGN.md "Enforced
# invariants" for the rules and the //duet:allow escape hatch. The
# cross-vet keeps internal/wire's portable dataplane file (the only one a
# Linux build never compiles) from rotting.
#
# The escape hatch is ratcheted: duetvet prints how many //duet:allow
# directives the tree holds outside test files and fails above
# ALLOW_BUDGET. Lower the number when a suppression goes; never raise it.
#
# Eight fences. The first keeps the figure toolkit (internal/metrics:
# sample quantiles, sparklines, formatters) out of the daemon: what a node
# measures is bucketed and read with telemetry.BucketQuantile. The second
# keeps internal/testbed a driver of core.Cluster: its non-test files import
# no mux and no ECMP hash, so the §7 figures cannot grow a route lookup →
# ECMP pick → tier fall-through of their own beside Cluster.Deliver again.
# The third keeps the NIC → SMux fall-through one implementation: the
# non-test files of internal/core and internal/wire name neither mux's
# Tally, which their ProcessSampled takes, so they reach both only through
# nmux.Pair. The fourth keeps a replicated delta one table generation per
# table: the non-test files of internal/wire call no per-VIP mutator of the
# muxes' tables, so reconcile stays on their batch Apply. The fifth keeps an
# in-process epoch one table generation per table: the non-test files of
# internal/core call no per-VIP mux mutator (AddTIP is the TIP item's), so
# every table edit — a move, a VIP or DIP added or removed — goes through
# Cluster.Place and its steer.Plan, and those of internal/controller call
# none of the cluster's per-VIP wrappers of Place (AddVIP, RemoveVIP,
# SetVIPMode, AssignToNMux), so an epoch, a health sweep and a bulk load are
# each one Place batch. The sixth keeps the control channel one binary
# codec: no non-test file of internal/wire but spec.go (the config file)
# imports encoding/json. The seventh keeps a receiver's work-list the delta
# itself: no non-test file of internal/wire imports hash/fnv, so no per-VIP
# fingerprint grows back to work out again what a push changed. The eighth
# keeps a mux tier's gauges one implementation: no non-test file of
# internal/core or internal/wire registers an hmux, smux, nmux or steer gauge,
# so both publish them only through the tiers' own Gauges collectors.
ALLOW_BUDGET = 21
lint: vet
	$(GO) run ./cmd/duetvet -max-allow $(ALLOW_BUDGET) ./...
	GOOS=darwin $(GO) vet ./internal/wire/
	! $(GO) list -deps ./cmd/duetd | grep -q '^duet/internal/metrics$$'
	! $(GO) list -f '{{join .Imports "\n"}}' ./internal/testbed | grep -Eq '^duet/internal/(hmux|smux|nmux|ecmp)$$'
	! grep -nE '\b(nmux|smux)\.Tally\b' $$(ls internal/core/*.go internal/wire/*.go | grep -v _test.go)
	! grep -nE '\.(AddVIP|UpdateVIP|RemoveVIP|AddTIP)\(' $$(ls internal/wire/*.go | grep -v _test.go)
	! grep -nE '\.(AddVIP|UpdateVIP|RemoveVIP)\(' $$(ls internal/core/*.go | grep -v _test.go)
	! grep -nE '\.(AddVIP|RemoveVIP|SetVIPMode|AssignToNMux)\(' $$(ls internal/controller/*.go | grep -v _test.go)
	! grep -n '"encoding/json"' $$(ls internal/wire/*.go | grep -v -e _test.go -e spec.go)
	! grep -n '"hash/fnv"' $$(ls internal/wire/*.go | grep -v _test.go)
	! grep -nE 'Gauge\("(hmux|smux|nmux|steer)\.' $$(ls internal/core/*.go internal/wire/*.go | grep -v _test.go)

# Non-blocking in CI: scans for known-vulnerable dependency versions when
# the govulncheck tool is available; skipped otherwise (offline builds).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Smoke of every decoder's fuzz targets, 5 s each — packet parsing and
# the address parser against its strings.Split reference, the
# wire frame and control-message codecs, the split of a coalesced read into
# frames, the delta codec — of the flow-pin table against its model, of a
# slot table's resilient removal against the reference group, of the route
# table against its converged reference, and of the placement scan's early
# exits against the full sum: each corpus gets a short randomized walk, enough
# to catch a fresh regression without turning CI into a fuzz farm. `go test
# -fuzz` takes one target per invocation, so the package:Target pairs run
# back to back.
FUZZ_TARGETS = \
	packet:FuzzIPv4Decode packet:FuzzEncapDecap packet:FuzzDecapsulate \
	packet:FuzzExtractFiveTuple packet:FuzzTransportDecode packet:FuzzRewrite \
	packet:FuzzChecksum packet:FuzzParseAddr \
	wire:FuzzDecodeFrameTrace wire:FuzzTracedFrameRoundTrip wire:FuzzReadMsg \
	wire:FuzzReadBurst \
	delta:FuzzDeltaDecode delta:FuzzDeltaRoundTrip \
	steer:FuzzPins steer:FuzzWithoutBackend bgp:FuzzTableMatchesReference \
	assign:FuzzEvaluateMatchesFullSum
fuzz-smoke:
	@for pt in $(FUZZ_TARGETS); do \
		t=$${pt#*:}; echo "fuzz $$t"; \
		$(GO) test -run XXX -fuzz "^$$t$$" -fuzztime 5s ./internal/$${pt%%:*} || exit 1; \
	done

# bench/ is its own module (the root ./... never sees it), so both suites
# run its tests explicitly.
test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...
	cd bench && $(GO) test -race ./...

# Zero-allocation gates for every instrumented hot path: the address
# parser every spec projection runs per VIP and backend, the shared table's
# lookup, the flow pins' hit and refused insert, the fabric's route pick, mux packet processing, host-agent decap/DSR, core's forwarding path over every tier ×
# mode × protocol (and DeliverBatch's exact per-batch count), the wire
# dataplane's burst (coalesced receive, handler, flush), the control channel's read of
# a delta push (at most the header strings allocate), the obs scrape tick
# running concurrently with the dataplane, and the controller's placement
# scan over a warmed round. Each test but the control read asserts
# allocs/op == 0 via testing.AllocsPerRun; the benchmarks report the same
# numbers with -benchmem for inspection, and BenchmarkDeliverBatch a cold and
# a warm ns/pkt beside them (a run's packets out of cache, and in it).
# BenchmarkRunEpochDelta runs once, so it keeps building: it sizes an epoch
# of ctl-churn's placement stage (µs and allocs per epoch over its 223
# incremental epochs) without the bench/ harness; run it with a larger
# -benchtime to compare placement changes. BenchmarkSyncVIPs, beside it,
# sizes a bulk load (ms, MB and allocations per SyncVIPs) at ctl-churn's
# 2,000 VIPs and at the paper's 30 k.
allocs:
	$(GO) test -run 'ZeroAlloc' ./internal/packet ./internal/telemetry ./internal/addrmap ./internal/bgp ./internal/hmux ./internal/smux ./internal/nmux ./internal/steer ./internal/hostagent ./internal/core ./internal/wire ./internal/obs ./internal/assign
	$(GO) test -run XXX -bench BenchmarkTelemetryHotPath -benchtime 100x -benchmem ./internal/telemetry
	$(GO) test -run XXX -bench BenchmarkDeliverBatch -benchtime 10x -benchmem ./internal/core
	$(GO) test -run XXX -bench 'BenchmarkRunEpochDelta|BenchmarkSyncVIPs' -benchtime 1x -benchmem ./internal/controller

# The demos are call sites too: each runs the paper's reaction through the
# entry point the controller exports for it and exits non-zero on a wrong
# result. examples/wire binds loopback sockets (half a second) and exits
# non-zero on a lost or non-VIP-sourced DSR response, which makes it the
# checked call site of hostagent.SendDSR.
examples:
	@for e in quickstart failover migration snat wire; do \
		$(GO) run ./examples/$$e >/dev/null || { echo "examples/$$e failed"; exit 1; }; \
	done

# The repository's one benchmark: four workloads, end-to-end metrics gated
# against BENCHMARK.json's bounds (see bench/README.md; add `--trace 1` for
# the per-layer ledger).
bench:
	bash bench/run.sh --workload all

# The size ledger ROADMAP aim 2 and CHANGES.md quote: non-test Go lines
# outside bench/ and testdata.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l
