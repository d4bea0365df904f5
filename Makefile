# ZION simulator build/test entry points.
#
#   make build  - compile everything
#   make test   - tier-1: full test suite
#   make race   - full test suite under the race detector
#   make lint   - golangci-lint if installed, else 'go vet' with a notice
#   make check  - tier-2: lint + the benchmark module's vet and tests +
#                 race detector on the whole module + the
#                 default fault-injection sweep (5 seeds x 500 faults) + the
#                 compartment-compromise campaign + a short host-throughput
#                 run (also verifies bit-identity)
#   make bench  - regenerate the paper's evaluation tables
#   make bench-host       - measure host MIPS on the trace and slow engines
#                           plus the multi-hart parallel engine, write
#                           BENCH_host.json
#   make bench-host-short - same at 1/8 scale, write BENCH_host_short.json
#                           (the committed CI gate baseline)
#   make bench-gate       - re-measure at 1/8 scale and fail if the simulated
#                           cycle/instret fingerprint drifts from the committed
#                           BENCH_host_short.json or a speedup regresses >20%
#   make bench-multicore  - bench-gate plus the multi-hart scaling sweep at
#                           HOSTHARTS harts (default 4); the committed
#                           scaling floor binds when this host has >= that
#                           many cores
#   make race-engine      - race detector x2 on the parallel engine and the
#                           bench harness (the multi-core CI race lane)
#   make smoke-monitor    - run a guest with the live monitor endpoint armed and
#                           self-scrape /metrics, /healthz and /profile
#   make smoke-serving    - short sustained-serving run (deterministic rerun
#                           checked inside zionbench); writes the latency
#                           histogram artifact serving_hist.json
#   make test-allocs      - pin the zero-allocation contract of the reference
#                           interpreter, the trace engine's superblock and
#                           compiled-trace dispatch loops, and the platform
#                           run loop (Advance) that drives them
#   make fuzz             - run each native fuzz target for FUZZTIME
#                           (default 30s; the nightly lane runs 5m)
#   make zbench-check     - vet and test the benchmark module (zbench/),
#                           which 'go build ./...' does not compile

GO ?= go
# HOSTHARTS sizes the parallel host-throughput section (bench-multicore).
HOSTHARTS ?= 4
# FUZZTIME is how long 'make fuzz' runs each fuzz target.
FUZZTIME ?= 30s

.PHONY: build test check race race-engine lint smoke smoke-compromise smoke-monitor smoke-serving test-allocs fuzz zbench-check bench bench-host bench-host-short bench-gate bench-multicore

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race: build
	$(GO) test -race ./...

# race-engine stresses the parallel engine and the bench harness under the
# race detector twice over: -count=2 reruns every test in a process whose
# heap/goroutine layout the first pass already perturbed, which is where
# barrier/outbox ordering bugs that a single pristine run misses tend to
# show up.
race-engine:
	$(GO) test -race -count=2 ./internal/platform/... ./internal/bench/...

# lint prefers golangci-lint (.golangci.yml enables govet, staticcheck,
# errcheck, ineffassign) but degrades to plain 'go vet' so 'make check'
# works on machines without the binary.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "lint: golangci-lint not found on PATH; falling back to 'go vet ./...'"; \
		$(GO) vet ./...; \
	fi

check: build
	$(MAKE) lint
	$(MAKE) zbench-check
	$(MAKE) race
	$(GO) test ./...
	$(MAKE) smoke
	$(MAKE) smoke-compromise
	$(MAKE) smoke-monitor
	$(MAKE) smoke-serving
	$(MAKE) bench-host-short

# smoke runs the default fault-injection sweep (5 seeds x 500 faults, a
# couple of seconds) through the zionbench driver: proof that the
# robustness path works end to end outside go test.
smoke:
	$(GO) run ./cmd/zionbench -e fi

# smoke-compromise runs the seeded compartment-compromise campaign: each
# SM compartment corrupted in turn, asserting the blast-radius contract
# (quarantine + post-mortem, bystanders bit-identical, survivors audit
# clean). FIC_SCENARIOS narrows the matrix (CI runs one job per scenario);
# the JSON report doubles as the post-mortem artifact on failure.
smoke-compromise:
	$(GO) run ./cmd/zionbench -e fic -ficseed 1 $(if $(FIC_SCENARIOS),-ficscenarios $(FIC_SCENARIOS)) -ficreport fic_report.json

# smoke-monitor proves the streaming monitor endpoint end to end without
# curl: zionvm serves it on a loopback port, runs a guest with the
# profiler armed, then scrapes its own /metrics, /healthz and /profile
# and exits non-zero if any body is malformed.
smoke-monitor:
	$(GO) run ./cmd/zionvm -workload aes -scale 256 -quantum 30000 -monitorcheck

# smoke-serving drives the multi-queue batched virtio data plane end to
# end outside go test: 20k requests across 8 CVMs, rerun once on a fresh
# stack inside zionbench to check the deterministic fingerprint, with the
# latency histogram written as a CI artifact.
smoke-serving:
	$(GO) run ./cmd/zionbench -e serving -servrequests 20000 -servhist serving_hist.json

# test-allocs is the hot-loop allocation gate: the reference interpreter's
# Step and the trace engine's RunBatch — its superblock loop, including
# the execute() retire of whatever a trace stops at, and the
# compiled-trace dispatch itself — must run allocation-free once warm, and
# so must platform.Advance, the run loop that paces them (device stores
# included). The suite runs these anyway; the dedicated target gives CI a
# cheap job whose failure names the regression directly.
test-allocs:
	$(GO) test ./internal/hart ./internal/platform -run 'TestStepSlowZeroAllocs|TestRunBatchSuperblockZeroAllocs|TestTraceDispatchAllocs|TestAdvanceZeroAllocs' -count=1 -v

# fuzz runs the native fuzz targets for FUZZTIME each (go test accepts one
# -fuzz target per package per run). A crasher lands under the package's
# testdata/fuzz/; commit it as a seed so plain 'go test' replays it.
fuzz:
	$(GO) test ./internal/sm -run='^$$' -fuzz=FuzzCheckAfterLoad -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/virtio -run='^$$' -fuzz=FuzzPopBatch -fuzztime=$(FUZZTIME)

# zbench-check compiles, vets and tests zbench/, the repository benchmark.
# It is a Go module of its own, so 'go build ./...' never compiles it and a
# change to a public name it uses (hv.NormalExit, hv.RunCVM,
# platform.EngineBlock) would otherwise surface only as failed benchmark
# operations. It runs in zbench/run.sh's offline environment, with the
# build caches under .bench_build/.
ZBENCH_ENV = GOCACHE=$(CURDIR)/.bench_build/gocache GOMODCACHE=$(CURDIR)/.bench_build/gomod GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

zbench-check:
	cd zbench && $(ZBENCH_ENV) $(GO) vet . && $(ZBENCH_ENV) $(GO) test .

bench:
	$(GO) run ./cmd/zionbench

# bench-host times the T1 aes and E4 CoreMark guests on the trace and slow
# engines, then the 4-hart aes workload sequentially vs under the
# quantum-barrier parallel engine; the run fails if any simulated cycle
# count diverges between engines.
bench-host:
	$(GO) run ./cmd/zionbench -e "" -hostbench BENCH_host.json

bench-host-short:
	$(GO) run ./cmd/zionbench -e "" -hostbench BENCH_host_short.json -hostdiv 8

# bench-gate is the CI regression gate: fresh 1/8-scale measurement, gated
# against the committed same-scale baseline. The fresh numbers are written
# to BENCH_host_ci.json (uploaded as a CI artifact, never committed).
bench-gate:
	$(GO) run ./cmd/zionbench -e "" -hostbench BENCH_host_ci.json -hostdiv 8 -hostgate BENCH_host_short.json

# bench-multicore is the real-core scaling lane: the same 1/8-scale
# measurement with the parallel section at HOSTHARTS harts, gated against
# the committed baseline — whose recorded scaling_floor only binds when
# this host actually has >= HOSTHARTS cores (a 1-core container records
# honest numbers and the floor stays dormant). CI runs this on a 4-core
# runner, where the floor is live.
bench-multicore:
	$(GO) run ./cmd/zionbench -e "" -hostbench BENCH_host_ci.json -hostdiv 8 -hostharts $(HOSTHARTS) -hostgate BENCH_host_short.json
