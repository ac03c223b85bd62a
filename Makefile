GO ?= go

# check is the gate every change must pass: static analysis, a full
# build, the full test suite, a race-detector pass over the packages
# that use (sweep runner, serve daemon) or feed (event kernel)
# concurrency, and the exhaustive small-config protocol model check.
.PHONY: check
check: vet lint tablecover build test race modelcheck bench-test trace-smoke fleet-smoke fleet-chaos-smoke obs-fleet-smoke

.PHONY: vet
vet:
	$(GO) vet ./...

# lint runs the repo's own analyzers (determinism contract, stats-key
# registry, event-callback safety), plus staticcheck when installed.
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
# protocol configurations (~4.2M states across 7 configs, ~8s with the
# parallel checker) and fails on any SWMR / data-value / MM-install
# invariant violation, or if the sweep ever explores fewer states than
# the committed floor (a shrinking sweep means rules silently stopped
# firing).
.PHONY: modelcheck
modelcheck:
	$(GO) run ./cmd/dstore-modelcheck -min-states 4000000

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./internal/bench ./internal/sim ./internal/serve ./internal/chaos ./internal/coherence ./internal/store ./internal/fleet ./internal/modelcheck

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

# trace-smoke records a Chrome trace of one small benchmark and
# validates it: dstore-sim re-parses the written file through
# encoding/json (the same parse Perfetto performs) and exits non-zero
# on a malformed document. The timeline, histogram and time-series
# exports ride along so every observability format gets exercised.
.PHONY: trace-smoke
trace-smoke:
	$(GO) run ./cmd/dstore-sim -bench MT -input small -mode direct-store \
		-trace /tmp/dstore-trace-smoke.json -timeline /tmp/dstore-trace-smoke.txt \
		-hist -timeseries /tmp/dstore-trace-smoke.csv > /dev/null
	@rm -f /tmp/dstore-trace-smoke.json /tmp/dstore-trace-smoke.txt /tmp/dstore-trace-smoke.csv
	@echo "trace-smoke: ok"

# serve-smoke boots the serve daemon on a random loopback port,
# submits one small job over real HTTP, resubmits it, and asserts the
# second answer is a byte-identical cache hit with exactly one
# simulation executed (checked against the /metrics counters).
.PHONY: serve-smoke
serve-smoke:
	$(GO) test ./internal/serve -run TestCacheHitDeterminism -count=1

# fleet-smoke boots an in-process fleet — two persistent dstore-serve
# workers plus a dstore-coord coordinator — streams one sweep matrix
# through it, SIGKILLs a worker, and asserts every job still answers
# byte-identically via the hash ring's surviving replica.
.PHONY: fleet-smoke
fleet-smoke:
	$(GO) run ./cmd/dstore-coord -smoke

# fleet-chaos-smoke runs the fault-tolerance walkthrough in-process:
# a worker behind a chaosnet proxy is partitioned (jobs fail over,
# the breaker trips), healed (a probe recloses it), then serves one
# bit-flipped result body — which the coordinator's digest check must
# catch, quarantine, and answer around from the replica.
.PHONY: fleet-chaos-smoke
fleet-chaos-smoke:
	$(GO) run ./cmd/dstore-coord -chaos-smoke

# obs-fleet-smoke exercises the observability plane end to end: two
# named in-process workers plus a coordinator run a 12-job sweep, the
# stitched cross-process Chrome trace from /v1/sweeps/{id}/trace is
# re-parsed through encoding/json and must carry spans from the
# coordinator and both workers under one trace ID, and the federated
# /metrics aggregates must equal the sums of the workers' own scrapes.
.PHONY: obs-fleet-smoke
obs-fleet-smoke:
	$(GO) run ./cmd/dstore-coord -obs-smoke

# bench regenerates the event-kernel microbenchmarks. Compare against
# the committed baseline in BENCH_sim_engine.txt before merging engine
# changes.
.PHONY: bench
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim

.PHONY: baseline
baseline:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim | tee BENCH_sim_engine.txt

# baseline-json regenerates the machine-readable performance baseline
# (BENCH_coherence.json): the full Fig. 4 sweep run sequentially with
# the event counter on (wall clock, events, events/sec), the recorded
# seed-binary reference for the same sweep, and the engine
# microbenchmarks lifted from BENCH_sim_engine.txt. SEED_FIG4_WALL is
# the growth seed's wall seconds for the sweep, measured back-to-back
# on the same machine; override it when re-measuring on new hardware
# (or set it to 0 to omit the reference block).
SEED_FIG4_WALL ?= 35.71
.PHONY: baseline-json
baseline-json: baseline
	$(GO) run ./cmd/dstore-bench -baseline-json BENCH_coherence.json -seed-fig4-wall $(SEED_FIG4_WALL)

# bench-diff is the microbenchmark regression guard: rerun the engine
# benchmarks and compare against the committed baseline, warning on
# any metric more than 10% worse. Warn-only for timing (wall clock on
# a shared box is noisy); allocation metrics are deterministic, so
# treat a B/op or allocs/op warning as a real regression.
.PHONY: bench-diff
bench-diff:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim > /tmp/dstore-bench-current.txt
	$(GO) run ./cmd/dstore-benchdiff BENCH_sim_engine.txt /tmp/dstore-bench-current.txt
