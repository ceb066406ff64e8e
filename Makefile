# Developer entry points for the DTM reproduction. Performance claims are made
# with the repository's benchmark, `bash bench/run.sh` (BENCHMARK.json,
# bench/README.md); `make bench` is one short run of it.

GO ?= go

.PHONY: all build vet test bench cover loc clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The smoke run CI's `bench` job makes: every answer verified, every pinned
# DES counter matched.
bench:
	bash bench/run.sh --workload des --seed 1 --seconds 10 --trace 0

# Coverage ratchet (same gate CI runs): total statement coverage must stay at
# or above the floor committed in COVERAGE_FLOOR.
cover:
	./scripts/coverage_gate.sh

# The line counts CHANGES.md entries quote: non-test Go outside bench/, test
# Go, bench/, and non-test lines per package.
loc:
	./scripts/loc.sh

clean:
	rm -f repro.test *.test *.out *.pprof
