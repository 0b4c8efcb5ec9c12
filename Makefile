# Targets mirror the CI pipeline (.github/workflows/ci.yml): a green
# `make ci` locally means the required jobs pass.

GO ?= go

.PHONY: build test race vet fmt-check perfbench-check chaos-smoke bench-smoke throughput-gate parity-gate parity-bench policy-gate recovery-bench cluster-gate cluster-bench sched-gate sched-bench latency-gate latency-bench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench is a module of its own, outside the root ./... patterns: vet
# and test it against the current server API, as the build job does.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# A single fixed-seed round of every chaos campaign, as the smoke test runs.
chaos-smoke:
	$(GO) test -run TestChaosSmoke -v ./internal/chaos
	$(GO) run ./cmd/sdrad-chaos -seed 12648430 -ops 16

# The evaluation at reduced scale.
bench-smoke:
	$(GO) run ./cmd/sdrad-bench -quick

# The channel-path scaling curve against the committed baseline, as the
# bench-regression CI job gates it (full scale, ~3 minutes).
throughput-gate:
	$(GO) run ./cmd/sdrad-bench -throughput -throughput-baseline BENCH_throughput.json

# The check-elision parity gate: assert the committed baseline holds the
# headline cell (sdrad w8 d16) at >= 0.97x vanilla. Deterministic — it
# reads BENCH_throughput.json, runs nothing — so machine noise cannot
# flake it; a recording below the floor simply may not be committed.
parity-gate:
	$(GO) run ./cmd/sdrad-bench -parity-baseline BENCH_throughput.json

# Re-measure the paired parity grid live (~2 minutes on a quiet machine;
# the headline ratio is also re-recorded by `-throughput`, which is what
# updates the gated baseline).
parity-bench:
	$(GO) run ./cmd/sdrad-bench -parity

# The fixed-seed escalation-ladder campaign plus the recovery-cost gate,
# as the policy-gate CI job runs them.
policy-gate:
	$(GO) run ./cmd/sdrad-chaos -campaigns policy -seed 12648430 -ops 32
	$(GO) run ./cmd/sdrad-bench -quick -recovery-baseline BENCH_recovery.json

# Re-measure rewind-vs-restart recovery cost and rewrite the committed
# baseline (run on a quiet machine, then commit BENCH_recovery.json).
recovery-bench:
	$(GO) run ./cmd/sdrad-bench -quick -recovery-json BENCH_recovery.json

# The fixed-seed cluster chaos campaign plus the routed-path gates, as
# the cluster-gate CI job runs them. The scaling/availability gate is
# deterministic — it reads BENCH_cluster.json, runs nothing — and the
# live rerun is a coarse 50% sanity bound (routed throughput wears host
# scheduling noise the calibration loop cannot see).
cluster-gate:
	$(GO) run ./cmd/sdrad-chaos -campaigns cluster -seed 12648430 -ops 16
	$(GO) run ./cmd/sdrad-bench -cluster-gate BENCH_cluster.json
	$(GO) run ./cmd/sdrad-bench -quick -cluster-baseline BENCH_cluster.json

# Re-measure the routed scaling curve and availability-under-kill cell
# and rewrite the committed baseline (run on a quiet machine, then
# commit BENCH_cluster.json — it must still pass `make cluster-gate`).
cluster-bench:
	$(GO) run ./cmd/sdrad-bench -quick -cluster -cluster-json BENCH_cluster.json

# The adaptive-scheduler gate: the fixed-seed sched chaos campaign, then
# assert the committed baseline holds the scheduler cells — idle w1 d1
# p99 at <= 1.0x the fixed build and fault-storm goodput at >= 1.15x.
# The baseline check is deterministic (reads BENCH_throughput.json, runs
# nothing), so machine noise cannot flake it; a recording below the
# floors simply may not be committed.
sched-gate:
	$(GO) run ./cmd/sdrad-chaos -campaigns sched -seed 12648430 -ops 32
	$(GO) run ./cmd/sdrad-bench -sched-gate BENCH_throughput.json

# Re-measure the scheduler cells at full scale and merge them into the
# committed baseline (run on a quiet machine, then commit
# BENCH_throughput.json — it must still pass `make sched-gate`).
sched-bench:
	$(GO) run ./cmd/sdrad-bench -sched -sched-json BENCH_throughput.json

# The placement/stealing gate: the fixed-seed route chaos campaign, then
# assert the committed latency baseline holds the knee p99 win at >= 1.3x
# and the uniform p50 tax at <= 5%. The baseline check is deterministic
# (reads BENCH_latency.json, runs nothing), so machine noise cannot flake
# it; a recording below the floors simply may not be committed.
latency-gate:
	$(GO) run ./cmd/sdrad-chaos -campaigns route -seed 12648430 -ops 24
	$(GO) run ./cmd/sdrad-bench -latency-gate BENCH_latency.json

# Re-measure the latency-under-load curves at full scale and rewrite the
# committed baseline (run on a quiet machine, then commit
# BENCH_latency.json — it must still pass `make latency-gate`).
latency-bench:
	$(GO) run ./cmd/sdrad-bench -latency -latency-json BENCH_latency.json

ci: build vet fmt-check test perfbench-check race chaos-smoke parity-gate policy-gate cluster-gate sched-gate latency-gate
