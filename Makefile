GO ?= go

# The dataplane derives its driver-goroutine count from GOMAXPROCS (one P per
# driver plus one for the admitter), so the host decides which topology a
# suite exercises unless the suite pins it. Two shapes matter and each gets a
# race pass on every host: `race` runs the whole tree at GOMAXPROCS=2 — one
# driver, whose baton the admitter takes and steps itself (the quota and
# server soak tests included) — and the suites whose claims are about
# cross-goroutine interleavings run again at PROCS, more Ps than any test's
# Workers+1, so every pipeline gets its own driver (the OS time-slices the
# extra threads, which only adds interleavings). Plain `go test ./...` stays
# at the host default. One driver runs every packet whole, in admission
# order, so it never parks: at GOMAXPROCS=2 only the tests that pin a
# several-driver shape themselves reach D4 park and promote. The park path is
# covered in full by race-dataplane, race-poison, flake-hunt and fuzz-smoke,
# all at PROCS.
PROCS = GOMAXPROCS=8

.PHONY: all build vet fmt-check test race race-dataplane flake-hunt race-server race-tenant allocs-gate race-poison serve-smoke trace-smoke tenant-smoke examples-smoke doc-refs experiments-check check bench bench-test fuzz-smoke fuzz loc clean

all: check

build:
	$(GO) build ./...

# fmt-check fails (listing the offenders) when any tracked Go file is not
# gofmt-clean; it never rewrites files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet: build fmt-check
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	GOMAXPROCS=2 $(GO) test -race ./...

# race-dataplane focuses the race detector on the concurrent execution
# engine — the one package whose correctness claims are about goroutine
# interleavings (lock-free ticket counters, slot-local wait rings, the
# baton) — at the k-driver shape `race` does not reach on a small host.
race-dataplane:
	$(PROCS) $(GO) test -race -count 1 ./internal/dataplane

# flake-hunt repeats the tests whose outcome once depended on timing — the
# baton handoffs between admitter and driver goroutine (leave with work,
# reclaim, abort and stall under the baton), and the daemon's overload
# shedding, drain during a hot swap and traced soak — 50 times each plain,
# under -race, and under -race with poison-on-free. A pre-merge tool for
# changes to the ticket, park, driver or server path (several minutes),
# deliberately not part of `check`; the bar is 0 failures.
FLAKY = TestAdmitterLeavesWorkToDriver|TestAdmitterReclaimsBaton|TestWatchdogDetectsStall|TestSubmitAbortRetiresTickets|TestSubmitBatchAbortRetiresTickets
FLAKY_SERVER = TestUDPOverloadShedsAtIngress|TestShutdownMidHotSwap|TestTracedSoakTCP
flake-hunt:
	$(PROCS) $(GO) test -count 50 -run '$(FLAKY)' ./internal/dataplane
	$(PROCS) $(GO) test -race -count 50 -run '$(FLAKY)' ./internal/dataplane
	$(PROCS) $(GO) test -tags mp5debug -race -count 50 -run '$(FLAKY)' ./internal/dataplane
	$(PROCS) $(GO) test -count 50 -run '$(FLAKY_SERVER)' ./internal/server
	$(PROCS) $(GO) test -race -count 50 -run '$(FLAKY_SERVER)' ./internal/server
	$(PROCS) $(GO) test -tags mp5debug -race -count 50 -run '$(FLAKY_SERVER)' ./internal/server

# allocs-gate is the hot-path allocation regression gate: steady-state
# Submit must perform exactly zero heap allocations per packet and
# SubmitBatch ~zero per chunk (testing.AllocsPerRun counts process-wide
# mallocs, so worker-side regressions are caught too). Deliberately not
# under -race: the race runtime allocates, so those tests self-skip there.
# The wire gate holds the daemon's I/O shell to the same bar: decoding a
# stream into a slab allocates nothing, and a whole loopback closed-loop run
# (client, codec, ingress queue, admit loop, engine, ack path) stays under
# 0.1 process-wide allocations per packet. The simulator's remap window
# (counting, Figure 6, the returned moves) allocates nothing. The C1
# reference order (one interpreter pass with a dense per-slot log) stays
# under one allocation per packet; recording outputs and access order adds
# at most half of one to a simulator run; and a line-rate simulator run
# (4 x 512, and 8 x 8 backed up thousands deep in stage FIFOs) stays under
# 0.1 allocations per packet, its packets and FIFO entries living in slabs.
allocs-gate:
	$(GO) test -count 1 -run 'TestSubmitSteadyStateAllocs|TestSubmitBatchSteadyStateAllocs' ./internal/dataplane
	$(GO) test -count 1 -run TestWireSteadyStateAllocs ./internal/server
	$(GO) test -count 1 -run TestRemapSteadyStateAllocs ./internal/sharding
	$(GO) test -count 1 -run TestReferenceOrderAllocs ./internal/equiv
	$(GO) test -count 1 -run 'TestRecordedRunAllocs|TestRunRecyclesPackets' ./internal/core

# race-poison runs the dataplane suite with poison-on-free compiled in
# (-tags mp5debug) under the race detector: every recycled packet is
# clobbered with sentinels, so a stale reference either races or corrupts
# an equivalence oracle loudly.
race-poison:
	$(PROCS) $(GO) test -tags mp5debug -race -count 1 ./internal/dataplane

# race-server focuses the race detector on the network daemon — listeners,
# the bounded ingress queue, the serial admitter, and the egress-ack path
# all interleave; the loopback soak with differential verification must
# stay race-clean.
race-server:
	$(PROCS) $(GO) test -race -count 1 ./internal/server

# race-tenant focuses the race detector on the multi-tenant registry —
# lock-free ByID/Active snapshots racing hot swaps and quota accounting are
# exactly the interleavings the package exists to get right.
race-tenant:
	$(PROCS) $(GO) test -race -count 1 ./internal/tenant

# serve-smoke is the end-to-end daemon soak: build mp5d and mp5load, run a
# fixed-seed closed-loop TCP workload over loopback (zero loss required),
# probe the admin plane, SIGTERM, and require a clean drain with
# differential equivalence at the daemon.
serve-smoke:
	sh scripts/serve_smoke.sh

# tenant-smoke is the end-to-end multi-tenant soak: two tenants with
# different programs and quotas share one daemon, mp5load drives both
# concurrently, alpha is hot-swapped via POST /programs/alpha mid-run, and
# the SIGTERM drain must report per-tenant/per-version equivalence.
tenant-smoke:
	sh scripts/tenant_smoke.sh

# trace-smoke is the end-to-end tracing soak: run the daemon with 1/16 wire
# span sampling and a JSONL span stream, drive a fixed-seed TCP workload,
# check the live trace surface (/stats, /metrics, mp5top), then validate
# the drained span stream with mp5trace (stage sums must reconcile with
# span totals; the exact expected span count must be present).
trace-smoke:
	sh scripts/trace_smoke.sh

# bench-test vets and tests the nested bench/ module (the benchmark harness
# behind BENCHMARK.json). It is a Go module of its own, so the root
# `go build ./... && go test ./...` cannot see it — and it compiles against
# the dataplane and server surfaces, so a signature change there breaks it
# silently unless the gate goes in and looks.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# examples-smoke builds and runs every program under examples/: each checks
# its own run against the single-pipeline reference (mp5.Check) and exits
# non-zero on a failed verdict, which fails the target. About a second.
examples-smoke:
	@for d in examples/*/; do $(GO) run ./$$d > /dev/null || { echo "examples-smoke: $$d failed"; exit 1; }; done

# doc-refs fails on a stale reference in DESIGN.md, README.md or
# EXPERIMENTS.md: a backticked test, benchmark, fuzz target or example that
# `go test -list` does not find (root module or bench/), or a backticked repo
# path that does not exist (scripts/doc_refs.sh).
doc-refs:
	bash scripts/doc_refs.sh

# experiments-check builds mp5bench, runs it at the default scale (every
# seed and sweep point; 15–25 s on 2 vCPUs, budget 60 s) and diffs its
# stdout byte for byte against the marker blocks of EXPERIMENTS.md, naming
# the first table that differs (scripts/experiments_check.sh; its -w form
# rewrites the blocks from the run).
experiments-check:
	bash scripts/experiments_check.sh

# check is the gate, and its only definition (scripts/check.sh execs it):
# build, gofmt, vet; the whole suite under -race at GOMAXPROCS=2;
# the three interleaving-sensitive packages again under -race at $(PROCS),
# and the dataplane once more with poison-on-free; the allocation gate; the
# differential-fuzzing smoke; the three daemon soaks; the examples, run; the
# root microbenchmarks, run once each; the benchmark harness's own tests;
# the docs' references; EXPERIMENTS.md against a fresh mp5bench run. Each
# (package, GOMAXPROCS, build tags) combination runs once. Numbers are not
# the gate's job: bench/run.sh measures (bench/README.md).
check: vet race race-dataplane race-server race-tenant race-poison allocs-gate fuzz-smoke serve-smoke trace-smoke tenant-smoke examples-smoke bench bench-test doc-refs experiments-check

# fuzz-smoke is the deterministic, seeded, time-bounded slice of the
# differential fuzzing harness: MP5_FUZZ_CASES fixed cases (program +
# workload) checked against the single-pipeline reference on every
# order-preserving architecture, plus a run of the committed seed corpus
# (engines run the bytecode VM, differenced against references that run the
# interpreter) — then the same smoke on the replicated engine,
# and the wire codec's seed corpus (FuzzDecodeStream: the slab stream
# decoder and decodeDatagram against the one-frame reference).
fuzz-smoke:
	$(PROCS) MP5_FUZZ_CASES=40 $(GO) test -run 'TestDifferentialSmoke|FuzzDifferential' ./internal/fuzz
	$(PROCS) MP5_FUZZ_CASES=40 MP5_FUZZ_ENGINE=screp $(GO) test -count 1 -run TestDifferentialSmoke ./internal/fuzz
	$(GO) test -count 1 -run FuzzDecodeStream ./internal/server

# fuzz runs open-ended coverage-guided differential fuzzing (ctrl-C to stop;
# see also cmd/mp5fuzz for long offline sweeps with JSONL artifacts).
fuzz:
	$(GO) test -run FuzzDifferential -fuzz FuzzDifferential ./internal/fuzz

# bench runs every root microbenchmark (bench_test.go) once, a couple of
# seconds: in `check` it catches a benchmark that no longer builds or
# panics after an API change, not a slowdown.
bench:
	$(GO) test -bench . -benchtime 1x -run ^$$ .

# loc prints the non-test Go line count (wc -l: comments and blank lines
# included) of every package tree under internal/ and cmd/, then the
# internal/, cmd/ and overall totals — the number a simplicity change quotes.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }; \
	for d in internal/* cmd/*; do printf '%7d %s\n' "$$(count $$d)" "$$d"; done; \
	printf '%7d %s\n' "$$(count internal)" "internal total" "$$(count cmd)" "cmd total" "$$(count internal cmd)" total

clean:
	$(GO) clean ./...
