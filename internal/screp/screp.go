// Package screp executes compiled MP5 programs under State-Compute
// Replication (arXiv 2309.14647) — the competing answer to stateful
// multi-pipeline scaling that internal/dataplane's D2 index sharding
// reproduces from the source paper. Where the sharded engine partitions
// every register index across workers and steers packets to the owner,
// this engine replicates: every worker owns a full private copy of ALL
// register state, packets are sprayed round-robin with no address
// resolution, no shard map, and no crossbar steering, and state coherence
// is restored by replaying a compact per-packet write log.
//
// The mechanism:
//
//   - The packet's arrival id IS its global sequence number; packet s
//     executes on worker s mod k. Admission is therefore trivial — no
//     resolution stages run on the admitter, no tickets are issued.
//   - Every worker executes the full stage program against its own
//     replica. Before a packet's first stateful stage may run, the worker
//     replays the write deltas of every earlier sequence number it has not
//     yet applied (spinning until they are published); after its last
//     stateful stage it publishes its own delta — the final values of the
//     register slots the packet wrote — into a fixed-size sequence-indexed
//     ring, then runs the remaining stateless stages and egresses.
//   - Publication order is therefore exactly arrival order: publishing
//     sequence s requires every delta below s to be applied first, so the
//     stateful span of packet s happens strictly before the stateful span
//     of packet s+1, whichever workers run them. That global serialization
//     of stateful spans gives condition C1 — every register slot observes
//     accesses in arrival order — by construction, verified differentially
//     by equiv.Ref.Verify in this package's tests and as a fourth
//     engine leg in internal/fuzz.
//
// The trade against sharding is the one the benchmark's screp.over_sharded
// rung measures (bench/README.md, DESIGN.md §18): replication pays
// nothing at admission and nothing for steering — stateless and
// read-mostly programs spray perfectly — but every written slot is
// re-applied by all k replicas, so write-heavy state costs k times the
// stores and the serialized stateful span bounds the parallel section.
package screp

import (
	"runtime"
	"time"

	"mp5/internal/dataplane"
	"mp5/internal/stats"
	"mp5/internal/telemetry"
)

// Latency histogram shape, matching internal/dataplane so merged results
// are comparable side by side: microseconds in [0, 65536) at 8 µs
// resolution.
const (
	latLo      = 0
	latHi      = 1 << 16
	latBuckets = 1 << 13
)

// Config parameterizes an Engine. It is deliberately a subset of
// dataplane.Config — replication has no shard placement to seed.
type Config struct {
	// Workers is the number of replica workers k (one goroutine each, each
	// holding a full private register file); 0 defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// Window bounds the number of in-flight packets (admitted but not yet
	// egressed); 0 defaults to 256. As in the sharded engine, mailboxes
	// are sized to the window so crossbar sends never block.
	Window int
	// RecordOutputs retains each packet's final header fields (required
	// for equivalence checking via equiv.Ref.Verify).
	RecordOutputs bool
	// RecordAccessOrder logs the per-slot effective access order, keyed
	// like the simulator's EvAccess stream (required for C1 checking).
	// The log is written inside the globally-serialized stateful span, so
	// it needs no lock.
	RecordAccessOrder bool
	// RecordEgressOrder retains the wall-clock egress sequence so Result
	// can report Reordered.
	RecordEgressOrder bool
	// StallTimeout aborts the run when no packet egresses for this long
	// while packets are in flight; 0 defaults to 10s. The watchdog is the
	// liveness backstop behind the replay spin loop.
	StallTimeout time.Duration
	// Metrics, when non-nil, receives concurrent counter updates (nil
	// disables with zero overhead).
	Metrics *Metrics
	// Tracer, when non-nil, receives sampled wire-to-wire spans. The
	// tracer is shared with internal/dataplane — screp stamps the same
	// window_wait/admit/crossbar/exec/egress segments plus its own
	// replay_wait stage, so one span pipeline serves both strategies.
	Tracer *dataplane.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 10 * time.Second
	}
	return c
}

// Metrics is the engine's telemetry surface: plain registry counters,
// updated concurrently by the admitter and all workers.
type Metrics struct {
	Admitted *telemetry.Counter
	Egressed *telemetry.Counter
	// Deltas counts published per-packet write deltas (one per packet on
	// stateful programs, including empty deltas that only advance the
	// sequence chain); ReplayedWrites counts individual register stores
	// re-applied on non-executing replicas — the replication overhead.
	Deltas         *telemetry.Counter
	ReplayedWrites *telemetry.Counter
	Stalls         *telemetry.Counter
}

// NewMetrics registers the engine's counters on r (nil r yields all-nil
// counters, the disabled state).
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Admitted:       r.NewCounter("screp_admitted_total", "packets admitted into the replication engine"),
		Egressed:       r.NewCounter("screp_egressed_total", "packets that completed all stages"),
		Deltas:         r.NewCounter("screp_deltas_total", "per-packet write deltas published to the replay ring"),
		ReplayedWrites: r.NewCounter("screp_replayed_writes_total", "register stores re-applied on non-executing replicas"),
		Stalls:         r.NewCounter("screp_stalls_total", "runs aborted by the liveness watchdog"),
	}
}

// Result summarizes one Engine.Run.
type Result struct {
	Workers   int
	Injected  int64
	Completed int64
	// DeltasPublished counts per-packet write deltas placed on the replay
	// ring; WritesReplayed counts the individual register stores other
	// replicas re-applied — the price of replication, the analogue of the
	// sharded engine's Steers/Parks columns.
	DeltasPublished int64
	WritesReplayed  int64
	// Reordered counts packets that egressed after a later-arriving packet
	// (only populated with Config.RecordEgressOrder).
	Reordered int64
	// Stalled reports a watchdog abort.
	Stalled bool
	// Elapsed is the wall-clock run time; PktsPerSec = Completed/Elapsed.
	Elapsed    time.Duration
	PktsPerSec float64
	// Latency is the merged per-worker admission-to-egress latency
	// histogram in microseconds (same shape as the sharded engine's).
	Latency *stats.Histogram
}

func newHistogram() *stats.Histogram {
	return stats.NewHistogram(latLo, latHi, latBuckets)
}
