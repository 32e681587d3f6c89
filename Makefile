# Local and CI entry points — .github/workflows/ci.yml invokes exactly
# these targets, so a green `make all` locally means a green CI run.

GO ?= go

# Coverage floor enforced by `make cover` (total statement coverage; the
# repo sat at 78.7% when the floor was introduced and crossed 80% with
# the telemetry/admission/chaos suites — raise it as the trajectory
# climbs, never lower it).
COVER_FLOOR ?= 80.0

.PHONY: all build test race race-fleet test-chaos test-scenario test-scripts bench bench-json bench-gate bench-baseline bench-vet bench-test generate-check profile lint fmt docs-check cover fuzz-smoke clean-store

all: build lint docs-check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The federation failover suite under the race detector, uncached: a
# fleet of in-process workers with one killed mid-sweep must deliver
# every cell exactly once. `make race` covers these too; this target
# re-runs them in isolation so CI records the failover proof explicitly.
race-fleet:
	$(GO) test -race -count=1 -run 'Fleet|Coordinator|Shard' ./internal/fleet ./internal/serve

# The chaos suite under the race detector, uncached: fleets with
# injected latency, mid-stream disconnects, stalls, capacity drain,
# armed stragglers (speculative re-dispatch must stay bit-identical),
# shedding workers (503 + Retry-After is busy, not dead), store
# corruption/concurrent writers and mid-sweep membership churn must
# still deliver every sweep cell bit-identical to single-node
# execution, and the telemetry observer must not perturb a single
# generated bit (the no-perturbation fingerprints in internal/cluster).
test-chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestCapacity|TestWeighted|TestSetCapacity|TestShed|TestPlain503|TestStore|TestJoin|TestLease|TestDynamic' ./internal/fleet
	$(GO) test -race -count=1 -run 'TestProgressSink' ./internal/cluster

# The scenario compiler suite, uncached: parser/compiler round-trips,
# the coverage-verifier property test (compiled campaigns cover exactly
# the declared cross-product), the golden compiled-campaign plan for
# examples/scenarios/quick.yaml (refresh after an intentional plan
# change with `go test ./internal/scenario -run Golden -update`), and
# the /v1/scenario + CLI + fleet federation paths end to end.
test-scenario:
	$(GO) test -count=1 ./internal/scenario
	$(GO) test -count=1 -run 'Scenario|DispatchStudy' ./internal/serve ./internal/fleet ./cmd/earlybird

# Drop the durable result store a local coordinator accumulated
# (override STORE_DIR to match your -store-dir).
STORE_DIR ?= .earlybird-store
clean-store:
	rm -rf $(STORE_DIR)

# Shell-level tests for the repo's scripts — today the bench gate's
# comparison verdicts (scripts/bench_gate_test.sh), in particular that a
# benchmark missing from the baseline fails loudly instead of sliding
# through ungated.
test-scripts:
	sh scripts/bench_gate_test.sh

# One iteration per benchmark: a smoke test that the benchmarks still
# compile and run, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Streaming-vs-materialised study benchmark at the paper's geometry,
# recorded as test2json events so the perf trajectory of the data plane
# accumulates across PRs (acceptance: streaming B/op >= 5x lower).
# BENCH_streaming.json, BENCH_strategies.json and BENCH_dlb.json are all
# append-only: each run adds an entry, so the checked-in files are the
# benchmark trajectories across PRs (the README's trajectory table is
# read from BENCH_streaming.json). BenchmarkStrategySweep records the
# strategy lab's evaluator (acceptance: streaming B/op strictly below
# the materialised path), and BenchmarkFillDLB the rebalancing fill loop
# (static vs LeWI throughput at paper geometry — the cost of the dynamic
# policy axis).
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkStudy(Streaming|Materialized)$$' \
		-benchmem -benchtime=3x -json . >> BENCH_streaming.json
	@grep -o 'Benchmark[A-Za-z]*[ \t].*allocs/op' BENCH_streaming.json || true
	$(GO) test -run '^$$' -bench '^BenchmarkStrategySweep$$' \
		-benchmem -benchtime=3x -json ./internal/partcomm >> BENCH_strategies.json
	@grep -oE '[0-9]+ ns/op[^"]*allocs/op' BENCH_strategies.json || true
	$(GO) test -run '^$$' -bench '^BenchmarkFillDLB$$' \
		-benchmem -benchtime=3x -json ./internal/cluster >> BENCH_dlb.json
	@grep -oE '[0-9]+ ns/op[^"]*allocs/op' BENCH_dlb.json || true

# Regression gate: re-run the gated benchmarks (BenchmarkStudyStreaming,
# BenchmarkFillDLB) and fail on a >10% ns/op regression against the
# checked-in BENCH_baseline.txt. Threshold and run count are
# overridable: BENCH_GATE_PCT=15 BENCH_GATE_COUNT=5 make bench-gate.
# benchstat, when installed, prints the delta table; the gate decision
# itself needs only awk. Refresh the baseline with `make bench-baseline`
# on the reference machine after an intentional perf change.
bench-gate:
	sh scripts/bench_gate.sh

bench-baseline:
	sh scripts/bench_baseline.sh

# Vet (and so build) the service benchmark, a nested module that the
# root `go build ./...` skips: an API change that breaks it fails here.
bench-vet:
	cd servicebench && $(GO) vet ./...

# The service benchmark's own tests: every workload at quick geometry,
# including study-cold's bit-for-bit check of each reply against a
# fresh engine.RunSpec, which otherwise runs only when someone
# benchmarks by hand.
bench-test:
	cd servicebench && $(GO) test ./...

# Regenerate the sortx sorting networks and fail if the checked-in
# networks.go is not exactly its generator's output.
generate-check:
	$(GO) generate ./internal/sortx
	git diff --exit-code -- internal/sortx/networks.go

# CPU + allocation profile of the streaming-study hot path
# (BenchmarkStudyStreaming), summarised to the terminal; the raw
# profiles stay in profiles/ for `go tool pprof` exploration.
profile:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkStudyStreaming$$' -benchtime 5x \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-o profiles/earlybird.test .
	$(GO) tool pprof -top -nodecount=15 profiles/earlybird.test profiles/cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space \
		profiles/earlybird.test profiles/mem.prof

# Coverage profile + one-line summary + per-package table, uploaded as
# CI artifacts so the trajectory accumulates across PRs. Fails when the
# total drops below COVER_FLOOR. The per-package table is the profile
# run's own output — the suite executes once.
cover:
	@$(GO) test -coverprofile=coverage.out ./... > COVERAGE_PACKAGES.txt; \
	status=$$?; cat COVERAGE_PACKAGES.txt; [ $$status -eq 0 ]
	$(GO) tool cover -func=coverage.out | tail -n 1 | tee COVERAGE.txt
	@total=$$(grep -oE '[0-9]+\.[0-9]+%' COVERAGE.txt | tr -d '%'); \
	awk -v total="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (total + 0 < floor + 0) { \
			printf "coverage %.1f%% is below the %.1f%% floor\n", total, floor; exit 1; \
		} \
		printf "coverage %.1f%% meets the %.1f%% floor\n", total, floor; \
	}'

# 10-second coverage-guided smokes of the strategy-ordering laws and of
# the two dataset decoders (trace.ReadCSV, trace.ReadJSON: no panic,
# allocation bounded by input length, accepted input survives a
# re-encode). The checked-in corpora replay in plain `make test` as well.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzStrategyOrdering$$' -fuzztime 10s ./internal/partcomm
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s ./internal/trace

lint:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi

fmt:
	gofmt -w .

# Fail if any *.md referenced from README or Go sources is missing.
docs-check:
	sh scripts/check-doc-links.sh
