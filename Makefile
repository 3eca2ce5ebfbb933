# Development entry points for the zerorefresh simulator.
#
#   make check   - the gate every change must pass: vet, zrlint, build,
#                  and the full test suite under the race detector
#                  (benchmarks excluded via -short; the golden-stats and
#                  concurrency tests still run and exercise the sharded
#                  paths).
#   make lint    - the domain-aware static analysis (cmd/zrlint), eight
#                  analyzers: determinism, transitive determinism taint,
#                  atomic-field consistency, hot-path allocation freedom
#                  (//zr:hotpath roots), layer purity, lock-order cycles,
#                  must-use results, lock safety. Findings fail the build
#                  unless annotated //zr:allow(<analyzer>); stale
#                  suppressions are findings too.
#   make test    - the plain tier-1 suite, as CI runs it.
#   make bench   - regenerate the paper's evaluation via the benchmark
#                  harness (slow; minutes).
#   make race    - just the race-sensitive packages, under -race.
#   make perfbench - regenerate BENCH_10.json, the tracked hot-path
#                  microbenchmark baseline (cmd/zrbench): the
#                  scalar-vs-batched datapath pairs, the arena/CoW storage
#                  and charged-bitmap scan primitives, transform kernels,
#                  event-queue primitives, dense-vs-event window drivers,
#                  the whole-page content fill, the introspection plane's
#                  trace tee, the trace-diff lockstep loop and the content
#                  generator (per-line LineAt, forward cursor).
#   make perfdiff - gate BENCH_10.json against the previous committed
#                  baseline generation (BENCH_9.json): fail if any shared
#                  benchmark regressed more than 10%.
#   make allocgate - fail if any steady-state benchmark in BENCH_10.json
#                  reports a nonzero allocs/op (the whole-window drivers
#                  are exempt; everything else must be allocation-free).

GO ?= go

.PHONY: check vet lint build test race bench perfbench perfdiff allocgate

check: vet lint build
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/zrlint ./...

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/transform ./internal/core ./internal/metrics ./internal/engine ./internal/obs

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

perfbench:
	$(GO) run ./cmd/zrbench -out BENCH_10.json -benchtime 300ms -count 3

perfdiff:
	$(GO) run ./cmd/zrbench -diff BENCH_9.json,BENCH_10.json -tolerance 0.10

allocgate:
	$(GO) run ./cmd/zrbench -allocgate BENCH_10.json
