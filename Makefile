# Development entry points. `make check` is the tier-1 gate: formatting,
# vet, build, and the full test suite under the race detector (which
# includes one short fault-injected soak pass).

GO ?= go

# The packages the observability Recorder/Registry reach, plus the fabric
# kernel, its three backends and the verb-level contract suite that drives
# them; `make race` runs just these under the race detector for a fast
# concurrency gate.
RACE_PKGS = ./internal/core/ ./internal/fabric/ ./internal/ib/ ./internal/mpi/ ./internal/rtfab/ ./internal/shmfab/ ./internal/stats/ ./internal/trace/ ./internal/traffic/ ./internal/verbs/

.PHONY: check fmt vet build test debug-test bench-check bench-suite race conformance fault-soak bench bench-backends tune tune-guard doclint par par-guard compile compile-guard qos soak soak-guard scale scale-guard zoo zoo-guard perf perf-guard

check: fmt vet build test debug-test bench-check doclint tune-guard par-guard compile-guard soak-guard scale-guard zoo-guard perf-guard

# Fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The message path's pooled records, under the use-after-recycle guard: with
# the dtdebug tag a recycled op, arrival record or request is poisoned and
# quarantined, so a continuation that outlives its record panics at the
# access instead of corrupting a later message (internal/core/debug_on.go).
debug-test:
	$(GO) vet -tags dtdebug ./internal/core/ ./internal/mpi/
	$(GO) test -tags dtdebug ./internal/core/ ./internal/mpi/

# The benchmark is a module of its own (repro/bench, nested under bench/), so
# `./...` above never reaches it: vet and test it separately, or an API break
# under it goes unseen until the benchmark is next run.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The repository's benchmark (BENCHMARK.json): every workload on every
# backend, end-to-end metrics. See bench/README.md for flags.
bench-suite:
	$(GO) run -C bench repro/bench

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# The cross-backend conformance suite on its own: every datatype shape over
# every transfer scheme must deliver byte-identical data on both the
# deterministic simulator and the real-time concurrent fabric.
conformance:
	$(GO) test -race -count=1 -run TestCrossBackend ./internal/mpi/

# A longer, visible fault-injection pass over every transfer scheme, on all
# three backends (shm is the one whose trains are never cut, so where a fault
# drawn inside a train is exercised hardest), then with every completion
# failing for good.
fault-soak:
	$(GO) run ./cmd/fabsim -fault-soak
	$(GO) run ./cmd/fabsim -fault-soak -backend shm
	$(GO) run ./cmd/fabsim -fault-soak -backend rt
	$(GO) run ./cmd/fabsim -fault-soak -perm-rate 1 -cqe-rate 1

# Adversarial adaptive-tuner sweep -> BENCH_tuner.json, plus the learned
# tuning table for warm starts (replay it with `dtbench -tune-in`).
tune:
	$(GO) run ./cmd/dtbench -tuner -tune-out TUNE_table.json

# CI-style guard: the sweep runs on virtual time with a seeded RNG, so the
# checked-in BENCH_tuner.json must regenerate byte-identically.
tune-guard:
	@$(GO) run ./cmd/dtbench -tuner -tuner-out BENCH_tuner.json >/dev/null
	@git diff --exit-code -- BENCH_tuner.json || \
		{ echo "BENCH_tuner.json drifted from 'make tune' output"; exit 1; }

# Documentation floor: package comments everywhere under internal/, and a
# doc comment on every exported symbol of the strict packages (core, fabric,
# pack, perfgate, qos, verbs).
doclint:
	$(GO) run ./cmd/doclint

# Parallel segment-engine sweep (workers x backend) -> BENCH_parallel.json.
# The rt rows are wall-clock and machine-dependent; regenerate them when the
# engine changes, on the machine the numbers are quoted for.
par:
	$(GO) run ./cmd/dtbench -parallel both

# CI-style guard: the sweep's sim rows run on virtual time, so the
# checked-in BENCH_parallel.json must regenerate them byte-identically.
# (rt rows are exempt: they are wall-clock measurements.)
par-guard:
	@$(GO) run ./cmd/dtbench -parallel-guard

# Datatype-compiler pack sweep -> BENCH_compile.json: compiled program
# replay vs interpreted cursor walk vs the raw copy() upper bound. Sim rows
# are modeled and deterministic; host rows are wall-clock on this machine.
compile:
	$(GO) run ./cmd/dtbench -compile

# CI-style guard: the sweep's sim rows are pure cost-model arithmetic, so
# the checked-in BENCH_compile.json must regenerate them byte-identically.
# (host rows are exempt: they are wall-clock measurements.)
compile-guard:
	@$(GO) run ./cmd/dtbench -compile-guard

# Service-mode QoS contention sweep -> BENCH_qos.json: eager-class latency
# under concurrent Multi-W bulk load, with the lanes+windows layer off and
# on. The rt rows (and the headline eager-p99 improvement) are wall-clock;
# regenerate on the machine the numbers are quoted for.
qos:
	$(GO) run ./cmd/dtbench -qos both

# Deterministic two-phase traffic soak on the simulator -> SOAK_traffic.json
# (counters, windowed pool high-waters, per-class latency buckets).
soak:
	$(GO) run ./cmd/dtbench -soak

# CI-style guard: the soak runs entirely on virtual time with seeded flows,
# so the checked-in SOAK_traffic.json must regenerate byte-identically.
soak-guard:
	@$(GO) run ./cmd/dtbench -soak-guard

# World-size scale sweep -> BENCH_scale.json: alltoall (scheme x layout up
# to 256 ranks), the 2-D halo exchange up to 1024 ranks, and the 1024-rank
# eager alltoall matching-stress row (a million messages through one world).
# The rt rows are small-world wall-clock spot-checks of the real-time fabric.
scale:
	$(GO) run ./cmd/dtbench -scale both

# CI-style guard: the sweep's sim rows run on virtual time, so the
# checked-in BENCH_scale.json must regenerate them byte-identically.
# (rt rows are exempt: they are wall-clock measurements.)
scale-guard:
	@$(GO) run ./cmd/dtbench -scale-guard

# Layout-zoo sweep -> BENCH_zoo.json: Eijkhout's irregular/nested/strided/
# tiny-run layouts (plus a contiguous control) under every scheme on all
# three backends, with per-backend winners and cross-backend flips. The rt
# rows are wall-clock spot-checks.
zoo:
	$(GO) run ./cmd/dtbench -zoo all

# CI-style guard: the sweep's modeled rows (sim + shm) run on virtual time,
# so the checked-in BENCH_zoo.json must regenerate them byte-identically.
# (rt rows are exempt: they are wall-clock measurements.)
zoo-guard:
	@$(GO) run ./cmd/dtbench -zoo-guard

# Performance floor: rerun the pinned hot-path micro-suite and rewrite
# BENCH_perf.json. Do this deliberately, after a change that moves the
# numbers for a reason you can name — wall rows on the machine they are
# quoted for.
perf:
	$(GO) run ./cmd/perfgate -update

# CI-style guard: compare the current build against BENCH_perf.json.
# Zero-alloc rows must stay at exactly zero allocs/op; whole-world rows (sim +
# shm) must stay at or under their max_allocs ceiling — two objects per
# message, its request handles — and within tolerance of their virtual-time
# latency; wall-clock rows are advisory.
perf-guard:
	@$(GO) run ./cmd/perfgate -check

# Wall-clock scheme bandwidth/latency on all backends -> BENCH_backends.json.
bench-backends:
	$(GO) run ./cmd/dtbench -backend all

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
