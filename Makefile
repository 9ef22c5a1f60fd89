# Build/verify/benchmark entry points. `make tier1` is the recipe CI (and
# the ROADMAP's tier-1 gate) runs; `make bench` records the netsim
# microbenchmarks into BENCH_netsim.json, `make serve-bench` the
# planning-service benchmarks into BENCH_serve.json and
# `make flexnet-bench` the parallel MCMC search benchmarks into
# BENCH_flexnet.json; the matching *benchcheck targets fail when the
# current tree regresses against the recorded numbers. `make ci` mirrors
# exactly what .github/workflows/ci.yml runs, so the pipeline is
# reproducible locally without act.

GO ?= go

# Benchtime for the *bench/*benchcheck targets; `make ci` shrinks it for
# the smoke pass and flips benchdiff into warn-only mode, since short
# runs on noisy shared runners should flag, not hard-fail.
BENCHTIME ?= 1s
BENCHDIFF_FLAGS ?=

# bench/benchcheck pipe `go test` into benchdiff; without pipefail a
# crashed benchmark run with partial output would still exit 0.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# `build` compiles ./... which includes examples/; TestExamplesBuild in
# the test step additionally pins them as an explicit guarantee.
.PHONY: tier1 fmt vet build test race bench benchcheck netsim-bench \
	netsim-benchcheck serve-bench serve-benchcheck flexnet-bench \
	flexnet-benchcheck fleet-bench fleet-benchcheck sweep-bench warm-bench \
	slo-bench bench-smoke bench-history profile-serve profile-fleet \
	profile-smoke chaos cover lint slo-smoke cluster-smoke ci

tier1: fmt vet build test

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The recorded benchmark suites, one row each: packages (comma-separated),
# -bench pattern, recording. A suite's name keys its BENCH_HISTORY.json
# entries and its profile files. flexnet also records the root package's
# registry-dispatched Compare sweep: the comparison path is two map
# lookups per architecture on top of the searches, so the recorded number
# is the guard that registry dispatch stays free. fleet is the
# cluster-scale simulator: whole scenario lifetimes, the raw event engine
# and the evaluation-cache hit path every long trace lives on.
SUITES := netsim serve flexnet fleet
SUITE.netsim  := ./internal/netsim    BenchmarkNetsim                                                BENCH_netsim.json
SUITE.serve   := ./internal/serve     BenchmarkServe                                                 BENCH_serve.json
SUITE.flexnet := ./internal/flexnet,./internal/core,. 'BenchmarkMCMCSearch|^BenchmarkWarmReplan|^BenchmarkCompare$$|^BenchmarkCoOptimize$$|^BenchmarkTopologyFinder$$' BENCH_flexnet.json
SUITE.fleet   := ./internal/fleet     BenchmarkFleet                                                 BENCH_cluster.json

comma := ,
define newline


endef
# $(call suite_run,NAME): five benchmark passes over a suite, printed for
# a pipe into benchdiff, which folds each benchmark's five rows into their
# median: one noisy 1 s run on a shared machine neither records nor fails
# a gate. $(call suite_json,NAME): its recording.
suite_run = $(GO) test $(subst $(comma), ,$(word 1,$(SUITE.$1))) -run '^$$' -bench $(word 2,$(SUITE.$1)) -benchmem -benchtime=$(BENCHTIME) -count=5
suite_json = $(word 3,$(SUITE.$1))
# $(call suite_import,NAME) copies a suite's recording into the ledger.
suite_import = $(GO) run ./cmd/benchdiff -history BENCH_HISTORY.json -suite $1 -import $(call suite_json,$1) -label '$(HISTORY_LABEL)'

# NAME-bench records a suite into its BENCH_*.json; NAME-benchcheck
# fails when the current tree regresses against that recording.
$(SUITES:%=%-bench): %-bench:
	$(call suite_run,$*) | $(GO) run ./cmd/benchdiff -out $(call suite_json,$*)

$(SUITES:%=%-benchcheck): %-benchcheck:
	$(call suite_run,$*) | $(GO) run ./cmd/benchdiff -check $(call suite_json,$*) $(BENCHDIFF_FLAGS)

# The netsim suite predates the table and keeps its short target names.
bench: netsim-bench
benchcheck: netsim-benchcheck

# `make sweep-bench` is the PR-time recorder for the fleet suite now that
# it includes the Monte Carlo sweep service (BenchmarkFleetSweep) and the
# pooled steady path (BenchmarkFleetSteady at 0 allocs/op, which
# fleet-benchcheck pins exactly — benchdiff treats a 0-alloc baseline as
# an exact gate, so a single leaked allocation fails the check). Runs the
# suite once, records it into BENCH_cluster.json, then copies that
# recording into the BENCH_HISTORY.json ledger under HISTORY_LABEL.
sweep-bench: fleet-bench
	$(call suite_import,fleet)

# `make warm-bench` is the PR-time recorder for the flexnet suite now
# that it includes the incremental-replanning benchmark
# (BenchmarkWarmReplan: warm-started near-miss search vs cold, same
# fabric family — the recorded gap is the ≥2x warm speedup the issue
# pins). Runs the suite once, records it into BENCH_flexnet.json, then
# copies that recording into the BENCH_HISTORY.json ledger under
# HISTORY_LABEL.
warm-bench: flexnet-bench
	$(call suite_import,flexnet)

# `make slo-bench` is the PR-time recorder for the serve suite now that
# it includes the open-loop SLO benchmark (BenchmarkServeOpenLoopSLO:
# Poisson arrivals at a fixed offered rate against an in-process daemon,
# ns/op = the median overall p99 of five windows — the serving-tail
# trajectory the SLO harness gates on). Runs the suite once, records it into
# BENCH_serve.json, then copies that recording into the
# BENCH_HISTORY.json ledger under HISTORY_LABEL.
slo-bench: serve-bench
	$(call suite_import,serve)

# Sustained-load SLO gate against one real daemon: open-loop Poisson
# arrivals (fire-and-forget, so a saturated server faces the full
# offered rate), time-bucketed p50/p99/p999, pass/fail on a p99 target
# and a zero-error budget. Exits nonzero on a failed gate.
slo-smoke:
	bash scripts/slo_smoke.sh

# Three real daemons joined by the consistent-hash peer ring: asserts
# byte-identical plans regardless of entry peer (planload
# -verify-identical) and a zero-error open-loop run round-robined across
# all members under the same SLO gate.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# Short-benchtime pass over every recorded suite. Warn-only: CI runners
# are noisy and 0.2s samples are for catching order-of-magnitude
# regressions, not 1.3x ones. The warm-quality gate runs first and is
# NOT warn-only: "warm at equal budget never loses to cold" is a
# correctness property of the warm-start seam, not a timing number, so
# it must hard-fail even on noisy runners.
bench-smoke:
	$(GO) test ./internal/flexnet -run TestMCMCWarmPatienceEqualBudgetQuality
	$(MAKE) BENCHTIME=0.2s BENCHDIFF_FLAGS=-warn-only benchcheck serve-benchcheck flexnet-benchcheck fleet-benchcheck

# Appends one dated entry per suite to the BENCH_HISTORY.json trajectory
# ledger (append-only, unlike the BENCH_*.json files whose "current"
# section is overwritten each record), then prints the first→latest trend
# per benchmark. Run at PR time with HISTORY_LABEL=prN to keep the
# performance story readable across PRs without git archaeology.
HISTORY_LABEL ?=
bench-history:
	$(foreach s,$(SUITES),$(call suite_run,$s) \
		| $(GO) run ./cmd/benchdiff -history BENCH_HISTORY.json -suite $s -label '$(HISTORY_LABEL)'$(newline))
	$(GO) run ./cmd/benchdiff -history BENCH_HISTORY.json -trend

# Contention + CPU profiles over the benchmark suites that exercise the
# serving hot path (cache hits, coalescing, lock handoffs) and the
# cluster simulator. Emits standard pprof files plus the test binary for
# symbolization; inspect with e.g.
#	go tool pprof profiles/serve.test profiles/serve_mutex.out
# Every profile must come out non-empty — an empty mutex/block profile
# means the runtime rates were never wired, which is exactly the
# regression this target exists to catch.
PROFILE_DIR ?= profiles

profile-serve profile-fleet: profile-%:
	mkdir -p $(PROFILE_DIR)
	$(call suite_run,$*) \
		-o $(PROFILE_DIR)/$*.test -outputdir $(abspath $(PROFILE_DIR)) \
		-cpuprofile $*_cpu.out \
		-mutexprofile $*_mutex.out -mutexprofilefraction 5 \
		-blockprofile $*_block.out -blockprofilerate 10000
	@for f in $*_cpu.out $*_mutex.out $*_block.out; do \
		[ -s $(PROFILE_DIR)/$$f ] || { echo "$@: $(PROFILE_DIR)/$$f missing or empty"; exit 1; }; \
	done
	@echo "$@: wrote $(PROFILE_DIR)/$*_{cpu,mutex,block}.out"

# Short-benchtime pass over both profiled suites: proves the profiling
# plumbing end to end (files exist and are non-empty) without the cost of
# a full benchtime run. CI runs this once per pipeline.
profile-smoke:
	$(MAKE) BENCHTIME=0.2s profile-serve profile-fleet

# Chaos suite: the crash/restart/drain/overload tests for the durable
# serving layer (internal/serve chaos + robustness files, driven through
# the seeded fault-injection middleware) and the WAL crash-consistency
# tests, all under the race detector. Deterministic — faults come from
# seeded rngs, not wall-clock randomness — so a failure here reproduces
# locally with the same command.
chaos:
	$(GO) test -race -timeout 300s \
		-run 'Chaos|Crash|Restart|Drain|Overload|Fault|Shed|QueueFull|Deadline|Torn|Kill|WarmBoot|Backoff|Retr|Broken|Closed' \
		./internal/serve ./internal/wal ./internal/clientretry -v

# Per-package coverage floors for the packages where a silent coverage
# slide is most dangerous: the architecture registry (every backend must
# stay exercised or a broken fabric ships silently), the cost model
# (unpriced components corrupt every Figure 10 reproduction), and the
# cluster/fleet simulators (an untested scheduling or failure path breaks
# reproducibility silently — results stay plausible but wrong). Floors
# sit below current coverage with headroom for refactors; raise them as
# the packages grow. internal/telemetry is floored high because its whole
# job is observability — an untested trace or exposition path means the
# operator's view of the daemon silently lies. internal/shard is floored
# high because ring ownership is a pure deterministic function the whole
# sharded cluster agrees through — an untested arc is a silent
# split-brain — and internal/slo because the SLO gate's own arithmetic
# must not be the thing that lies about a regression. internal/graph and
# internal/parallel carry the strategy search's hot path (the one
# Dijkstra whose pop order decides routes, the strategy clone and server
# marks every proposal pays for): a faster rewrite must stay as tested
# as the code it replaced.
COVER_FLOORS := internal/arch:80 internal/cost:90 internal/cluster:80 internal/fleet:80 internal/wal:85 internal/telemetry:85 internal/shard:90 internal/slo:85 internal/graph:90 internal/parallel:85

cover:
	@set -e; for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		out=$$($(GO) test -cover ./$$pkg 2>&1) \
			|| { echo "$$out"; echo "cover: tests failed in $$pkg"; exit 1; }; \
		pct=$$(echo "$$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for $$pkg"; exit 1; fi; \
		echo "$$pkg: $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p+0 >= f+0) ? 0 : 1 }' \
			|| { echo "cover: $$pkg coverage $$pct% below floor $$floor%"; exit 1; }; \
	done

# staticcheck and govulncheck run when installed (CI installs them; dev
# machines may not have them, and the tier-1 gate must stay hermetic).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

# The exact job list of .github/workflows/ci.yml, runnable locally.
ci: tier1 race chaos cover lint bench-smoke profile-smoke slo-smoke cluster-smoke
