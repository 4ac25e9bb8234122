GO ?= go

.PHONY: build test verify ci staticcheck govulncheck fuzz-smoke serve-smoke suite-smoke perfbench-check benchhost bench bench-suite bench-kernel bench-stream bench-serve tables report

# Pinned external analyzer versions; CI installs exactly these, local runs
# use whatever is on PATH (or skip with a notice).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the full correctness gate: go vet static analysis over every
# package (including internal/obs and the instrumented engine) plus the
# entire test suite — the parallel-vs-serial oracle, the telemetry-on
# determinism oracle and the vm-vs-walker differential included — under
# the race detector.
verify:
	$(GO) vet ./...
	$(GO) test -race ./...

# ci is the continuous-integration gate (mirrored by the GitHub Actions
# workflow): static analysis (vet always; staticcheck and govulncheck when
# installed), a full build, the race-enabled test suite, a short smoke
# pass over each native fuzz target, the smoke gates, and the nested
# perfbench module's checks.
ci:
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(MAKE) govulncheck
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) serve-smoke
	$(MAKE) suite-smoke
	$(MAKE) perfbench-check

# staticcheck / govulncheck run the pinned external analyzers when present
# on PATH and skip with a notice otherwise, so `make ci` works in offline
# containers; the GitHub Actions workflow installs the pinned versions and
# therefore always runs them.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# fuzz-smoke runs each fuzz target briefly — long enough to execute the
# committed seed corpora plus a burst of new inputs, short enough for CI —
# plus a race-enabled pass over the streaming broadcast stage (producer,
# ring and consumer goroutines under contention).
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadFile -fuzztime=10s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzAssemble -fuzztime=10s -run '^$$' ./internal/asm
	$(GO) test -fuzz=FuzzAlignHandler -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzSimulateHandler -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzExtTSPSemantics -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzImportCFG -fuzztime=10s -run '^$$' ./internal/cfgio
	$(GO) test -fuzz=FuzzImportDOT -fuzztime=10s -run '^$$' ./internal/cfgio
	$(GO) test -fuzz=FuzzRead -fuzztime=10s -run '^$$' ./internal/profile
	$(GO) test -fuzz=FuzzTaggedStep -fuzztime=10s -run '^$$' ./internal/predict
	$(GO) test -fuzz=FuzzKernelBatch -fuzztime=10s -run '^$$' ./internal/kernel
	$(GO) test -race -run 'TestBroadcast|TestSimulateStream' ./internal/sim

# serve-smoke boots a real balignd process on an ephemeral port, drives
# /healthz, /v1/align and /v1/simulate over HTTP, runs a short closed-loop
# baload leg gated on achieved RPS, unexpected errors and cache hits, then
# SIGTERMs the daemon and asserts a clean graceful drain. Complements the
# in-process httptest coverage in internal/serve with a real listener +
# signal path. See DESIGN.md §16.
serve-smoke:
	bash scripts/serve_smoke.sh

# suite-smoke reruns the multi-core determinism oracles with the Go
# scheduler forced wide (GOMAXPROCS=4) under the race detector: the engine's
# variant tasks, each broadcast's producer and its kernel and i-cache consumer
# goroutines genuinely interleave even on smaller CI hosts, and any ordering
# bug surfaces as a byte diff or a race report. The extended-families leg
# runs the adversarial workloads (phase-flipping branches included) and an
# imported CFG document through both kernel modes; the tagged leg pins the
# TAGE/perceptron grid byte-identical across both kernel modes; the i-cache
# leg checks the i-cache consumer each broadcast runs beside its kernels
# against a push-fed replay, in both kernel modes; the cfgio leg is the
# importer/exporter round-trip oracle on the same machinery; the load leg
# pins baload's virtual-mode report byte-identical under the same wide
# scheduler.
suite-smoke:
	GOMAXPROCS=4 $(GO) test -race -run 'TestDeterminismAcrossGOMAXPROCS' ./internal/experiments
	GOMAXPROCS=4 $(GO) test -race -run 'TestExtendedFamiliesStreamParity' ./internal/experiments
	GOMAXPROCS=4 $(GO) test -race -run 'TestTaggedPredictorStreamParity' ./internal/experiments
	GOMAXPROCS=4 $(GO) test -race -run 'TestICacheStreamMatchesRun' ./internal/experiments
	GOMAXPROCS=4 $(GO) test -race -run 'TestImportExportRoundTripOracle|TestEmptyFallBlockRoundTrips' ./internal/cfgio
	GOMAXPROCS=4 $(GO) test -race -run 'TestVirtualReport' ./internal/load

# perfbench-check covers the nested perfbench module, which the root
# module's `go build ./...` and `go test ./...` do not reach: a root API
# change that would break perfbench/run.sh fails here instead. It vets the
# module and runs its digest and BENCHMARK.json tests, changing no file.
# TestTracedSuiteAttribution is left out: its one-program grid is now too
# short for its 5% attribution tolerance (ROADMAP item 1).
perfbench-check:
	cd perfbench && GOWORK=off $(GO) vet .
	cd perfbench && GOWORK=off $(GO) test -count=1 -run 'TestCommittedDigests|TestBenchmarkJSON' .

# benchhost prints the host block (goos/goarch/cpu/go/gomaxprocs/cpus)
# that the committed BENCH_*.json files record; the bench targets emit it
# first so pasted logs carry their provenance.
benchhost:
	@$(GO) run ./scripts/benchhost

# report runs a small suite with run telemetry enabled, emitting a JSON
# run report (per-shard spans, engine, stream and executor stats, the
# summary grid), then sanity-checks the report schema via the dedicated
# test in cmd/baexp.
report:
	$(GO) run ./cmd/baexp -scale 0.1 -programs ora,compress -parallel 0 -report out.json suite
	$(GO) test -run TestRunReportSchema ./cmd/baexp

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-suite compares the experiment engine's serial oracle path against
# the 8-way sharded run on the same grid.
bench-suite:
	$(GO) test -bench 'BenchmarkSuite(Serial|Parallel)' -run '^$$' .

# bench-kernel compares the reference simulators against the compiled flat
# kernel, both end-to-end (full suite runs) and on the simulation grid in
# isolation (pre-recorded traces: reference simulators fed one event at a
# time versus the kernel over pre-packed batches). These are the
# BENCH_kernel.json numbers.
bench-kernel:
	@$(MAKE) --no-print-directory benchhost
	$(GO) test -bench 'Benchmark(SuiteKernel|SimulateGrid)' -benchtime 3x -run '^$$' .

# bench-stream measures the streaming broadcast pipeline end-to-end (wall
# time, allocated bytes, peak live trace bytes) and walker generation in
# isolation (push-style Walker versus the compiled WalkSource). These are
# the BENCH_stream.json numbers.
bench-stream:
	@$(MAKE) --no-print-directory benchhost
	$(GO) test -bench 'Benchmark(SuiteStream|WalkerGenerate)' -benchtime 3x -run '^$$' .

# bench-serve regenerates BENCH_serve.json: the single-node saturation
# sweep. See scripts/benchserve for what the sweep measures.
bench-serve:
	$(GO) run ./scripts/benchserve

tables:
	$(GO) run ./cmd/baexp -scale 0.2 all
