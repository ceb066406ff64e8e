# Developer entry points for the DTM reproduction. Performance claims are made
# with the repository's benchmark, `bash bench/run.sh` (BENCHMARK.json,
# bench/README.md); `make bench` / `make bench-gate` keep the older
# BENCH_dtm.json trip-wire, whose ns/op follows host load.

GO ?= go

.PHONY: all build vet test bench bench-gate bench-smoke cover clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full benchmark sweep of the hot-path figures and the E6/E7 experiments,
# plus a machine-readable summary (wall time / allocations per experiment) in
# BENCH_dtm.json.
bench:
	$(GO) test -bench='BenchmarkFig12$$|BenchmarkFig14$$|BenchmarkCompareAsyncJacobi$$|BenchmarkE6ScaleSparse$$|BenchmarkE7FaultSweep$$|BenchmarkE8SolveThroughput$$|BenchmarkE9CompareDistributed$$|BenchmarkE10FailoverSweep$$|BenchmarkE11SpannerFabric$$' \
		-benchmem -benchtime=2x -run '^$$' .
	$(GO) run ./cmd/dtmbench -benchjson BENCH_dtm.json -quick

# The benchmark-regression gate CI runs: measure into BENCH_current.json and
# diff against the committed BENCH_dtm.json baseline (fails on >25% ns/op or
# >10% allocs/op regressions). Re-baseline intentional changes with `make
# bench` and commit the rewritten BENCH_dtm.json.
bench-gate:
	$(GO) run ./cmd/dtmbench -benchjson BENCH_current.json -quick
	$(GO) run ./cmd/benchdiff -baseline BENCH_dtm.json -current BENCH_current.json

# One-iteration smoke run for CI: every benchmark must at least complete.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Coverage ratchet (same gate CI runs): total statement coverage must stay at
# or above the floor committed in COVERAGE_FLOOR.
cover:
	./scripts/coverage_gate.sh

clean:
	rm -f repro.test *.test *.out *.pprof BENCH_current.json
