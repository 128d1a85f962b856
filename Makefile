# Tier-1 verification gate and common developer targets.

GO ?= go

.PHONY: check build vet test race cover bench

## check: the tier-1 gate — build, vet, gofmt, all tests, race detector on
## the concurrency-bearing packages, the service smokes, and the
## experiments, portfolio and solver coverage floors. CI and pre-merge both
## run this.
check:
	./scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/experiments ./internal/portfolio ./internal/sweep ./internal/dataset ./internal/core ./internal/solver ./internal/faultpoint ./internal/obs ./internal/server ./internal/aiger ./internal/cluster

## cover: per-package coverage summary for the sweep/experiments stack.
cover:
	$(GO) test -count=1 -covermode=atomic -cover ./internal/experiments ./internal/sweep ./internal/metrics ./internal/dataset

## bench: run the solver + DRAT benchmark suites and write the
## machine-readable BENCH_solver.json trajectory file. Pass a custom
## -benchtime via BENCHTIME (e.g. `make bench BENCHTIME=3s`).
BENCHTIME ?= 1s
bench:
	./scripts/bench.sh $(BENCHTIME)
