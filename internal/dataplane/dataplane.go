// Package dataplane executes compiled MP5 programs on a real goroutine
// topology instead of simulating one: k pipelines (workers) stepped by
// min(k, GOMAXPROCS-1) drivers, crossbars between them (a channel between
// drivers; within one, the packet changes register file in place), and
// actual shared-nothing register shards. A driver is stepped only by the
// holder of its baton — its own goroutine, or, when there is a single
// driver, the serial admitter, which
// claims it wherever it would wait on the driver (a batch that fills the
// window, a full window, Drain), steps it instead of waiting, and hands it
// back when it returns. Where internal/core
// models the architecture cycle by cycle, this package *is* the
// architecture, mapped onto cores:
//
//   - D1 (processing homogeneity): every worker runs the full program;
//     stateless packets are sprayed round-robin across workers.
//   - D2 (sharded state): each register index is owned by exactly one
//     worker, which holds the only live copy in its private register file.
//     Placement is static — fixed when a program is loaded — so ticket
//     state can be laid out by writer (see slotState). The simulator
//     (internal/core) keeps the paper's dynamic D2, the Figure-6 remap.
//   - D3 (crossbar steering): a packet whose next stateful stage resolved
//     to another pipeline is forwarded over that pipeline's crossbar.
//   - D4 (phantom order enforcement): at admission, a serial admitter
//     stamps one ticket per resolved state slot from the slot's issued
//     counter, in arrival order — the execution-engine equivalent of the
//     phantom placeholder. A worker may only perform an access while every
//     slot of the visit is serving the packet's ticket (served == ticket);
//     otherwise the packet parks in the blocking slot's wait ring, on the
//     owning worker, until the ticket before it is retired. The path takes
//     no lock and hashes nothing (see slotState).
//
// Correctness (condition C1) follows by construction: per-slot tickets are
// issued in admission order, accesses retire them in ticket order, and the
// earliest in-flight packet always holds the ticket being served on every
// slot it still needs — so the engine is deadlock-free and every slot
// observes accesses in arrival order, which implies functional equivalence
// with the single-pipeline reference (checked differentially in
// internal/fuzz).
package dataplane

import (
	"time"

	"mp5/internal/stats"
	"mp5/internal/telemetry"
)

// Latency histogram shape shared by the per-worker histograms and the
// merged drain-time result: microseconds in [0, 65536) at 8 µs resolution.
const (
	latLo      = 0
	latHi      = 1 << 16
	latBuckets = 1 << 13
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of pipelines k (units of placement and order;
	// see driver for who runs them); 0 defaults to runtime.GOMAXPROCS(0).
	Workers int
	// Window bounds the number of in-flight packets (admitted but not yet
	// egressed). It is the admission-control semaphore that keeps every
	// mailbox overflow-free by construction; 0 defaults to 256.
	Window int
	// Seed selects the initial index→worker placement: 0 keeps the plain
	// round-robin assignment (the simulator's MP5 default); any other
	// value deterministically shuffles the balanced round-robin owner set
	// of every sharded array, so distinct daemons can start from distinct
	// placements without biasing load toward low-numbered workers.
	// Arrays of equal size share one shuffle, so they stay co-sharded.
	// Unsharded arrays always home at stage mod k. Placement never affects
	// functional correctness (C1 ticketing is placement-independent), only
	// steering.
	Seed int64
	// RecordOutputs retains each packet's final header fields (required
	// for equivalence checking via equiv.CheckState).
	RecordOutputs bool
	// RecordAccessOrder logs the per-slot effective access order, keyed
	// like the simulator's EvAccess stream (required for C1 checking).
	RecordAccessOrder bool
	// RecordEgressOrder retains the wall-clock egress sequence so Result
	// can report Reordered (adds one shared atomic increment and one
	// worker-private append per egress; merged at Drain).
	RecordEgressOrder bool
	// StallTimeout aborts the run when no packet egresses for this long
	// while packets are in flight (a liveness watchdog so differential
	// tests fail with Stalled instead of hanging); 0 defaults to 10s.
	StallTimeout time.Duration
	// Metrics, when non-nil, receives concurrent counter updates from the
	// admitter and every worker (nil disables with zero overhead).
	Metrics *Metrics
	// Tracer, when non-nil, receives sampled wire-to-wire spans: the
	// engine stamps window-wait, admit, crossbar, exec, ticket-wait, and
	// egress segments on packets submitted with a span (SubmitBatchTo's
	// spans) and hands finished spans to the tracer's collector. Nil
	// disables tracing with nil-check-only overhead on the hot path.
	Tracer *Tracer
	// OnEgress, when non-nil, runs on the egressing worker's goroutine
	// with the packet id and the tag it was submitted with (SubmitBatchTo;
	// 0 from Submit/SubmitBatch), after outputs are recorded and before the
	// window token is released. Packets SubmitBatchTo reports refused —
	// shed on quota, or retired on abort — are the caller's to settle. Keep
	// it fast: a callback that blocks stalls that worker and, through the
	// admission window, eventually the whole stream (the server uses it to
	// queue per-packet acks in lossless mode, which is exactly the
	// backpressure it wants).
	OnEgress func(id int64, tag uint64)
}

func (c Config) withDefaults(procs int) Config {
	if c.Workers <= 0 {
		c.Workers = procs
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 10 * time.Second
	}
	return c
}

// Metrics is the telemetry surface of the engine: plain registry counters,
// updated concurrently by the admitter and all workers (telemetry.Counter
// is atomic, so a shared Metrics is safe across engines and goroutines).
type Metrics struct {
	Admitted  *telemetry.Counter
	Egressed  *telemetry.Counter
	Steers    *telemetry.Counter
	Parks     *telemetry.Counter
	Wasted    *telemetry.Counter
	Stalls    *telemetry.Counter
	QuotaShed *telemetry.Counter
}

// NewMetrics registers the engine's counters on r (nil r yields all-nil
// counters, the disabled state).
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Admitted:  r.NewCounter("dataplane_admitted_total", "packets admitted into the dataplane"),
		Egressed:  r.NewCounter("dataplane_egressed_total", "packets that completed all stages"),
		Steers:    r.NewCounter("dataplane_steers_total", "inter-worker crossbar forwards"),
		Parks:     r.NewCounter("dataplane_parks_total", "packets parked waiting for a head ticket"),
		Wasted:    r.NewCounter("dataplane_wasted_visits_total", "conservative tickets whose predicate was false at execution"),
		Stalls:    r.NewCounter("dataplane_stalls_total", "runs aborted by the liveness watchdog"),
		QuotaShed: r.NewCounter("dataplane_quota_shed_total", "packets shed because the tenant admission quota was exhausted"),
	}
}

// Result summarizes one Engine.Run.
type Result struct {
	Workers   int
	Injected  int64
	Completed int64
	// Steers counts crossbar forwards; Parks counts ticket waits; Wasted
	// counts conservative tickets whose access predicate evaluated false.
	Steers int64
	Parks  int64
	Wasted int64
	// ShardMoves always reads 0: placement is static. It stays only because
	// the benchmark (bench/engine.go) still reads it; the benchmark's next
	// change deletes the field and its shard_moves_per_kpkt row.
	ShardMoves int64
	// Reordered counts packets that egressed after a later-arriving packet
	// (wall-clock reordering the concurrent engine introduces; only
	// populated with Config.RecordEgressOrder).
	Reordered int64
	// Stalled reports a watchdog abort: no egress progress for
	// StallTimeout with packets still in flight.
	Stalled bool
	// Elapsed is the wall-clock run time; PktsPerSec = Completed/Elapsed.
	Elapsed    time.Duration
	PktsPerSec float64
	// Latency is the merged per-worker admission-to-egress latency
	// histogram in microseconds. Each worker records into a private
	// histogram during the run and the engine merges them at drain time —
	// the intended share-nothing concurrency pattern for stats.Histogram.
	Latency *stats.Histogram
}
