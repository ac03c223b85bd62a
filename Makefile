GO ?= go

# check is the gate every change must pass: static analysis, a full
# build, the full test suite, a race-detector pass over the packages
# that use (sweep runner, serve daemon, the machine free lists in
# cache and core) or feed (event kernel) concurrency, and the
# exhaustive small-config protocol model check.
.PHONY: check
check: vet lint tablecover build test race modelcheck bench-test

.PHONY: vet
vet:
	$(GO) vet ./...

# lint runs the repo's own analyzers (determinism contract,
# event-callback safety, hot-path allocations, protocol-table coverage,
# span balance), plus staticcheck when installed.
.PHONY: lint
lint:
	$(GO) run ./cmd/dstore-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# tablecover statically cross-checks the protocol table against its
# handlers: every declared (state, event) row must have a handler arm
# in ctrl.go/memctrl.go/core.go, every Transition call site must be able to hit
# a declared row, and every declared row must fire in the committed
# model-checker reachability dump. It already runs inside `lint`; this
# target is the focused rerun for protocol edits.
.PHONY: tablecover
tablecover:
	$(GO) run ./cmd/dstore-lint -run tablecover ./internal/coherence

# bench-test vets and tests the benchmark module (benchmark/, a Go module
# of its own, so the root `go test ./...` never reaches it). Its tests
# pin the Fig. 4 comparison digests (benchmark/testdata/fig4.sha256) and
# the model checker's exact state counts, so every protocol edit is
# gated on identical simulation and identical exploration (~3 s).
.PHONY: bench-test
bench-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# reachability regenerates the committed model-checker coverage dump
# that the tablecover dead-transition check diffs against. Rerun after
# any protocol-table or model change and commit the result.
.PHONY: reachability
reachability:
	$(GO) run ./cmd/dstore-modelcheck -coverage internal/coherence/testdata/reachability.json
	@echo "wrote internal/coherence/testdata/reachability.json"

# modelcheck exhaustively explores the standard sweep of small
# protocol configurations (4,196,406 states across 7 configs, ~8 s with
# two workers on a 2-CPU container) and fails on any SWMR / data-value /
# MM-install invariant violation, or if the sweep explores fewer states
# than the exact committed count (a shrinking sweep means rules silently
# stopped firing).
.PHONY: modelcheck
modelcheck:
	$(GO) run ./cmd/dstore-modelcheck -min-states 4196406

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./internal/bench ./internal/cache ./internal/core ./internal/sim ./internal/serve ./internal/chaos ./internal/coherence ./internal/store ./internal/fleet ./internal/modelcheck ./internal/obs/...

# stress runs the seeded randomized coherence stress harness with the
# heavy fault profile. Deterministic: the same SEED and PROFILE always
# produce a byte-identical transcript, so a failure here is a seed you
# can replay forever. Override e.g. `make stress SEED=42 OPS=50000`.
SEED ?= 2026
PROFILE ?= heavy
OPS ?= 10000
.PHONY: stress
stress:
	$(GO) run ./cmd/dstore-sim -stress -chaos-seed $(SEED) -chaos-profile $(PROFILE) -stress-ops $(OPS)

# stress-soak fans the harness out across many seeds in parallel —
# the long-haul version of `make stress` for hunting rare interleavings.
.PHONY: stress-soak
stress-soak:
	$(GO) run ./cmd/dstore-sim -stress -chaos-seed $(SEED) -chaos-profile $(PROFILE) -stress-ops $(OPS) -stress-instances 32

# serve-smoke boots the serve daemon on a random loopback port,
# submits one small job over real HTTP, resubmits it, and asserts the
# second answer is a byte-identical cache hit with exactly one
# simulation executed (checked against the /metrics counters).
.PHONY: serve-smoke
serve-smoke:
	$(GO) test ./internal/serve -run TestCacheHitDeterminism -count=1

# fleet-smoke is the focused rerun of the fleet's end-to-end checks,
# all in-process on fixed worker hosts: a worker partitioned, healed,
# caught serving a corrupt result and requalified, with every job it
# owns answered byte-identically from the replica; the federated
# /metrics equal to the sums of the workers' own scrapes; and the
# stitched cross-process trace byte-identical across runs. `test` and
# `race` already run these tests, so `check` does not list it.
.PHONY: fleet-smoke
fleet-smoke:
	$(GO) test ./internal/fleet -run '^(TestFleetFaultWalkthrough|TestFederatedMetricsEqualWorkerSums|TestStitchedTraceByteDeterminism)$$' -count=1

# loc prints the two line counts each CHANGES.md entry reports:
# non-test Go outside benchmark/ (the frozen benchmark module) and test
# Go outside benchmark/. Untracked build output is never counted.
.PHONY: loc
loc:
	@git ls-files -co --exclude-standard -- '*.go' ':!:benchmark/*' | grep -v '_test\.go$$' | xargs cat | wc -l | xargs echo "non-test Go lines outside benchmark/:"
	@git ls-files -co --exclude-standard -- '*_test.go' ':!:benchmark/*' | xargs cat | wc -l | xargs echo "test Go lines outside benchmark/:"

# bench runs the event-kernel microbenchmarks, job construction
# (BenchmarkBuild: GC big and MM big) and the model checker's
# whole-exploration benchmarks, with -benchmem. Tests in internal/sim
# pin every engine benchmark's allocs/op and B/op, and
# TestBuildAllocBound bounds what Build allocates; the timings compare
# two builds on one machine (e.g. with benchstat).
.PHONY: bench
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim ./internal/bench ./internal/modelcheck
