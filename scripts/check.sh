#!/bin/sh
# check.sh — the repository's local CI gate: build, gofmt, vet, the
# race-enabled test suite, the differential-fuzzing smoke, the network
# daemon soak, and the telemetry-overhead guard benchmark. Mirrors
# `make check` for environments without make.
set -eux

# The dataplane derives its driver-goroutine count from GOMAXPROCS, so on a
# 2-vCPU host the suites whose claims are about cross-goroutine interleavings
# would run every pipeline on one goroutine. Those runs carry GOMAXPROCS=8 —
# more Ps than any test's Workers+1 (the OS time-slices the extra threads,
# which only adds interleavings); the suite-wide runs stay at the host default
# and cover the multiplexed shape.

go build ./...
# Formatting gate: every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l .)" || { gofmt -l .; exit 1; }
go vet ./...
go test -race ./...
# The simulator hot loop was rewritten event-driven; keep an explicit
# race-enabled pass over internal/core so narrowing the suite-wide -race run
# above can never silently drop it.
go test -race -count 1 ./internal/core
# The concurrent dataplane's correctness claims are about goroutine
# interleavings (lock-free ticket counters, slot-local parking, remap's
# ownership handoff); its differential equivalence suite must always run
# under the race detector.
GOMAXPROCS=8 go test -race -count 1 ./internal/dataplane
# The state-compute-replication engine's coherence story is a lock-free
# stamp-chained replay ring shared by all replicas; its differential suite
# (including replica convergence) must always run under the race detector.
go test -race -count 1 ./internal/screp
# The network daemon's loopback soak (streaming ingestion, backpressure,
# egress acks, graceful drain, differential verification of the admitted
# order) must stay race-clean too.
GOMAXPROCS=8 go test -race -count 1 ./internal/server
# Allocs-per-op regression gate: steady-state Submit must stay at exactly
# zero heap allocations per packet and SubmitBatch at ~zero per chunk.
# Deliberately NOT under -race (the race runtime allocates, which would
# make AllocsPerRun meaningless — those tests self-skip under -race).
go test -count 1 -run 'TestSubmitSteadyStateAllocs|TestSubmitBatchSteadyStateAllocs' ./internal/dataplane
# The wire path's allocation gate: decoding a stream into a slab allocates
# nothing, and a loopback closed-loop run stays under 0.1 process-wide
# allocations per packet (same self-skip under -race).
go test -count 1 -run TestWireSteadyStateAllocs ./internal/server
# Pooled-object lifecycle gate: the mp5debug build poisons every recycled
# packet, so a use-after-recycle shows up as an oracle mismatch or a race.
# Run the whole dataplane suite with poisoning AND the race detector on.
GOMAXPROCS=8 go test -tags mp5debug -race -count 1 ./internal/dataplane
# The multi-tenant registry's claims are about lock-free snapshots racing
# hot swaps and shared-quota accounting; its suite gets a pinned
# race-enabled pass.
GOMAXPROCS=8 go test -race -count 1 ./internal/tenant
# The bytecode compiler/VM is the shared per-stage executor under every
# engine; its differential suites (interpreter vs canonical stack loop vs
# quickened micro-ops, golden disassembly, exact MaxStack, corrupt-code
# errors) get a pinned race-enabled pass.
go test -race -count 1 ./internal/ir/bytecode
# Differential-fuzzing smoke: a deterministic, seeded, time-bounded slice of
# the harness — fixed random programs and workloads checked against the
# single-pipeline reference (state, outputs, C1 access order) on every
# order-preserving architecture, plus the committed seed corpus.
MP5_FUZZ_CASES=40 GOMAXPROCS=8 go test -run 'TestDifferentialSmoke|FuzzDifferential' ./internal/fuzz
# The same smoke with the compiled bytecode executor forced on every
# engine: all three oracles (state, outputs, C1 access order) must hold on
# the quickened VM exactly as they do on the tree-walking interpreter.
MP5_FUZZ_CASES=40 MP5_FUZZ_EXECUTOR=bytecode GOMAXPROCS=8 go test -count 1 -run TestDifferentialSmoke ./internal/fuzz
# The same smoke restricted to the state-compute-replication engine: the
# fourth engine leg alone, so a replication regression is attributed
# directly instead of surfacing as noise in the full sweep.
MP5_FUZZ_CASES=40 MP5_FUZZ_ENGINE=screp GOMAXPROCS=8 go test -count 1 -run TestDifferentialSmoke ./internal/fuzz
# The wire codec's seed corpus: arbitrary bytes through the slab stream
# decoder and decodeDatagram must match the one-frame reference, poison the
# stream on a hostile length, and never leave the slab's arena.
go test -count 1 -run FuzzDecodeStream ./internal/server
# End-to-end daemon soak: mp5load drives mp5d over loopback TCP with a
# fixed seed; zero loss, a live admin plane, and a clean SIGTERM drain with
# reference equivalence are all required.
sh scripts/serve_smoke.sh
# End-to-end multi-tenant soak: two tenants with different programs and
# quotas share one daemon under concurrent load; one is hot-swapped via the
# admin plane mid-run, and the drain must report per-tenant/per-version
# equivalence with zero loss.
sh scripts/tenant_smoke.sh
# End-to-end tracing soak: the daemon with 1/16 wire-span sampling and a
# JSONL span stream; the live trace surface (/stats, /metrics, mp5top)
# must serve, and mp5trace must reconcile every exported span's stage sums
# against its total.
sh scripts/trace_smoke.sh
# The benchmark harness is a nested Go module the root build cannot see, and
# it compiles against the dataplane and server surfaces: vet and test it.
(cd bench && go vet ./... && go test ./...)
# Guard: the simulator with tracing disabled (BenchmarkTraceDisabled) must
# stay within 2% of the seed's BenchmarkSimulatorPacketRate; compare the
# pkts/s metrics printed below. BenchmarkTraceTelemetry shows the cost of
# the full consumer stack (metrics + sampler + spans + JSONL).
go test -bench 'BenchmarkTrace|BenchmarkSimulatorPacketRate' -benchtime 2x -run '^$' .
