# Development entry points. `make check` is the tier-1 gate: formatting,
# vet, build, and the full test suite under the race detector (which
# includes one short fault-injected soak pass).

GO ?= go

# The packages the observability Recorder/Registry reach, plus the fabric
# kernel, its three backends, the verb-level contract suite that drives them,
# the registration table (its slots, reused ones included, are read at
# landing, on rt by the responder's driver) and the pack engine (pack.GoExec,
# the one goroutine fan-out on the pack path); `make race` runs just these
# under the race detector for a fast concurrency gate.
RACE_PKGS = ./internal/core/ ./internal/fabric/ ./internal/ib/ ./internal/mem/ ./internal/mpi/ ./internal/pack/ ./internal/rtfab/ ./internal/shmfab/ ./internal/stats/ ./internal/trace/ ./internal/traffic/ ./internal/verbs/

.PHONY: check fmt vet build test allocs debug-test bench-check bench-suite race conformance fault-soak bench bench-backends sweep guard doclint perf perf-guard

check: fmt vet build test allocs debug-test bench-check doclint guard perf-guard

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

# Every zero-allocation test, ten times over in one process: a claim that a
# warm path allocates nothing holds on every run or it fails here, not in a
# benchmark verdict.
allocs:
	$(GO) test -run 'AllocatesNothing|AllocateNothing|AllocatesOnly' -count=10 ./internal/core/ ./internal/fabric/ ./internal/mpi/

# The message path's pooled records, under the use-after-recycle guard: with
# the dtdebug tag a recycled op, arrival record or request is poisoned and
# quarantined, so a continuation that outlives its record panics at the
# access instead of corrupting a later message (internal/core/debug_on.go).
# A request released by the wait that completed it is poisoned the same way,
# so traffic (which keeps handles across WaitAny) and pario (whose server
# loop lives on blocking receives' envelopes) run here too: a use after
# release panics instead of reading a scrubbed Err as success.
DEBUG_PKGS = ./internal/core/ ./internal/mpi/ ./internal/traffic/ ./internal/pario/
debug-test:
	$(GO) vet -tags dtdebug $(DEBUG_PKGS)
	$(GO) test -tags dtdebug $(DEBUG_PKGS)

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

# One sweep of the table in internal/exper/sweep.go (backends, tuner,
# parallel, compile, soak, scale, zoo) on all its backends -> its
# BENCH_*.json / SOAK_*.json. Wall-clock rows are machine-dependent:
# regenerate them deliberately, on the machine the numbers are quoted for.
# ARGS passes flags through, e.g.
#   make sweep S=parallel ARGS='-backends sim'
#   make sweep S=tuner ARGS='-tune-out TUNE_table.json'   (replay: -tune-in)
sweep:
	$(GO) run ./cmd/dtbench run $(S) $(ARGS)

# CI-style guard, one process: every sweep's deterministic part (sim rows;
# the zoo's sim + shm rows; all of the tuner report and the traffic soak)
# runs on virtual time with seeded RNGs, so it must regenerate byte-for-byte
# what the committed artifact holds. Read-only; wall-clock rows are exempt.
# The scale sweep is most of a minute of it; `dtbench guard NAME` runs one.
guard:
	$(GO) run ./cmd/dtbench guard

# Documentation floor: package comments everywhere under internal/, and a
# doc comment on every exported symbol of the strict packages (core, fabric,
# pack, perfgate, qos, verbs).
doclint:
	$(GO) run ./cmd/doclint

# Performance floor: rerun the pinned hot-path micro-suite and rewrite
# BENCH_perf.json. Do this deliberately, after a change that moves the
# numbers for a reason you can name — wall rows on the machine they are
# quoted for.
perf:
	$(GO) run ./cmd/perfgate -update

# CI-style guard: compare the current build against BENCH_perf.json.
# Zero-alloc rows must stay at exactly zero allocs/op — the whole-world rows
# (sim + shm) among them, request handles included — and virtual-time rows
# within tolerance of their latency; the cold-layout rows must stay at or
# under their max_allocs ceiling; wall-clock rows are advisory.
perf-guard:
	@$(GO) run ./cmd/perfgate -check

# Wall-clock scheme bandwidth/latency on all backends -> BENCH_backends.json.
bench-backends:
	$(GO) run ./cmd/dtbench run backends

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
