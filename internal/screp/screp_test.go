package screp

import (
	"reflect"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/telemetry"
	"mp5/internal/workload"
)

// workerCounts are the replica topologies every equivalence test sweeps —
// the acceptance criterion requires {1, 2, 4}.
var workerCounts = []int{1, 2, 4}

// runChecked drives the engine over the trace and fails the test unless
// the run is loss-free and matches the single-pipeline reference on
// outputs, final registers, and per-slot access order (C1) — the same
// three oracles the sharded engine is held to.
func runChecked(t *testing.T, prog *ir.Program, arrivals []core.Arrival, cfg Config) (*Engine, *Result) {
	t.Helper()
	cfg.RecordOutputs = true
	cfg.RecordAccessOrder = true
	cfg.RecordEgressOrder = true
	e := New(prog, cfg)
	res := e.Run(arrivals)
	checkResult(t, e, res, prog, arrivals, cfg.Workers)
	return e, res
}

func checkResult(t *testing.T, e *Engine, res *Result, prog *ir.Program, arrivals []core.Arrival, workers int) {
	t.Helper()
	if why := equiv.Liveness(res.Stalled, res.Completed, int64(len(arrivals))); why != "" {
		t.Fatalf("workers=%d: %s: %d of %d completed (trace %d)", workers, why, res.Completed, res.Injected, len(arrivals))
	}
	if rep := equiv.Run(prog, arrivals).Verify(e.FinalRegs(), e.Outputs(), e.AccessOrders()); !rep.Equivalent {
		t.Fatalf("workers=%d: not equivalent to reference:\n%s", workers, rep)
	}
}

func TestSyntheticEquivalence(t *testing.T) {
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []workload.Pattern{workload.Uniform, workload.Skewed} {
		for _, k := range workerCounts {
			t.Run(pattern.String()+"/"+string(rune('0'+k)), func(t *testing.T) {
				arrivals := workload.Synthetic(prog, workload.Spec{
					Packets: 3000, Pipelines: 4, Seed: 7, Pattern: pattern,
				}, 4, 64)
				runChecked(t, prog, arrivals, Config{Workers: k})
			})
		}
	}
}

// TestAppEquivalence checks every bundled application — including the
// ones with stateful predicates and data-dependent indices, which the
// replication model handles with no resolution at all (the dirty set is
// captured live, inside the serialized span).
func TestAppEquivalence(t *testing.T) {
	for _, app := range apps.All() {
		prog := app.MP5()
		arrivals := workload.RandomFields(prog, workload.Spec{
			Packets: 2000, Pipelines: 4, Seed: 11,
		})
		for _, k := range workerCounts {
			t.Run(app.Name+"/"+string(rune('0'+k)), func(t *testing.T) {
				runChecked(t, prog, arrivals, Config{Workers: k})
			})
		}
	}
}

// TestStatelessSpray runs a register-free program: a pure round-robin
// spray with no deltas published and no writes replayed.
func TestStatelessSpray(t *testing.T) {
	prog, err := apps.Synthetic(0, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Accesses) != 0 {
		t.Fatalf("expected a stateless program, got %d accesses", len(prog.Accesses))
	}
	arrivals := workload.RandomFields(prog, workload.Spec{Packets: 1000, Pipelines: 4, Seed: 3})
	_, res := runChecked(t, prog, arrivals, Config{Workers: 4})
	if res.DeltasPublished != 0 || res.WritesReplayed != 0 {
		t.Fatalf("stateless run published %d deltas / replayed %d writes", res.DeltasPublished, res.WritesReplayed)
	}
}

// TestSingleSubmitStream drives the stream one packet at a time through
// Submit (one-packet SubmitBatch chunks) instead of Run's whole-trace
// SubmitBatch.
func TestSingleSubmitStream(t *testing.T) {
	prog, err := apps.Synthetic(2, 32, 12)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 1200, Pipelines: 4, Seed: 19}, 2, 32)
	for _, k := range workerCounts {
		e := New(prog, Config{Workers: k, RecordOutputs: true, RecordAccessOrder: true})
		e.Start()
		for i := range arrivals {
			if !e.Submit(&arrivals[i]) {
				t.Fatalf("workers=%d: Submit refused packet %d", k, i)
			}
		}
		res := e.Drain()
		checkResult(t, e, res, prog, arrivals, k)
	}
}

// TestReplicaConvergence is the replication model's own invariant: after
// a clean Drain every worker's private register file must be
// bit-identical — each replica replayed every delta it did not produce.
func TestReplicaConvergence(t *testing.T) {
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{
		Packets: 2500, Pipelines: 4, Seed: 23, Pattern: workload.Skewed,
	}, 4, 64)
	e, res := runChecked(t, prog, arrivals, Config{Workers: 4})
	if res.DeltasPublished != res.Completed {
		t.Fatalf("published %d deltas for %d completions (the sequence chain must be dense)",
			res.DeltasPublished, res.Completed)
	}
	ref := e.ReplicaRegs(0)
	for i := 1; i < e.Workers(); i++ {
		if got := e.ReplicaRegs(i); !reflect.DeepEqual(ref, got) {
			t.Fatalf("replica %d diverged from replica 0 after converge:\nr0: %v\nr%d: %v", i, ref, i, got)
		}
	}
}

// TestWindowOne serializes the whole engine through a single in-flight
// packet — the degenerate topology that shakes out window accounting (and
// here also guarantees replay never waits).
func TestWindowOne(t *testing.T) {
	prog, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 500, Pipelines: 2, Seed: 9}, 2, 16)
	runChecked(t, prog, arrivals, Config{Workers: 2, Window: 1})
}

func TestEmptyTrace(t *testing.T) {
	prog, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Config{Workers: 2, RecordOutputs: true})
	res := e.Run(nil)
	if res.Injected != 0 || res.Completed != 0 || res.Stalled {
		t.Fatalf("empty trace: %+v", res)
	}
	if len(e.Outputs()) != 0 {
		t.Fatal("empty trace produced outputs")
	}
}

// TestMetrics reconciles the engine's telemetry counters with its Result.
func TestMetrics(t *testing.T) {
	prog, err := apps.Synthetic(2, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 1500, Pipelines: 4, Seed: 13}, 2, 32)
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	_, res := runChecked(t, prog, arrivals, Config{Workers: 4, Metrics: m})
	if m.Admitted.Value() != res.Injected {
		t.Fatalf("admitted counter %d != injected %d", m.Admitted.Value(), res.Injected)
	}
	if m.Egressed.Value() != res.Completed {
		t.Fatalf("egressed counter %d != completed %d", m.Egressed.Value(), res.Completed)
	}
	if m.Deltas.Value() != res.DeltasPublished || m.ReplayedWrites.Value() != res.WritesReplayed {
		t.Fatalf("counters diverge from result: deltas %d/%d, replayed %d/%d",
			m.Deltas.Value(), res.DeltasPublished, m.ReplayedWrites.Value(), res.WritesReplayed)
	}
	if res.DeltasPublished != res.Completed {
		t.Fatalf("published %d deltas for %d completions", res.DeltasPublished, res.Completed)
	}
	if res.Latency.Total() != int(res.Completed) {
		t.Fatalf("latency histogram holds %d samples for %d completions", res.Latency.Total(), res.Completed)
	}
}

// TestStallWatchdog wedges one replica right before its replay (the
// white-box hook), starving every other replica of that sequence number's
// delta: the watchdog must abort the run as Stalled instead of hanging,
// and the spinning replicas must observe the abort and exit.
func TestStallWatchdog(t *testing.T) {
	prog, err := apps.Synthetic(2, 32, 12)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 400, Pipelines: 4, Seed: 31}, 2, 32)
	e := New(prog, Config{Workers: 4, StallTimeout: 100 * time.Millisecond})
	e.testBeforeReplay = func(p *packet) {
		if p.id == 0 {
			<-e.abort // hold sequence 0 hostage until the watchdog fires
		}
	}
	res := e.Run(arrivals)
	if !res.Stalled {
		t.Fatalf("wedged run did not stall: %+v", res)
	}
	if !e.Stalled() {
		t.Fatal("Stalled accessor disagrees with result")
	}
	// The wedge releases when abort fires, so completion may catch up —
	// but the admitter must have been cut off at the window cap, well
	// short of the full trace.
	if res.Injected >= int64(len(arrivals)) {
		t.Fatalf("stalled run still admitted the whole trace (%d)", res.Injected)
	}
}

// TestTracedRun attaches a sample-everything tracer: every span must be
// collected (or counted as dropped), and the replay_wait stage must be
// known to the span pipeline.
func TestTracedRun(t *testing.T) {
	prog, err := apps.Synthetic(2, 32, 12)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 600, Pipelines: 4, Seed: 37}, 2, 32)
	reg := telemetry.NewRegistry()
	trc := dataplane.NewTracer(dataplane.TracerConfig{SampleEvery: 1, Registry: reg})
	e := New(prog, Config{Workers: 4, RecordOutputs: true, Tracer: trc})
	spans := make([]*dataplane.Span, len(arrivals))
	for i := range spans {
		spans[i] = trc.Sample()
	}
	e.Start()
	if got := e.SubmitBatch(arrivals, spans); got != len(arrivals) {
		t.Fatalf("SubmitBatch admitted %d of %d", got, len(arrivals))
	}
	res := e.Drain()
	trc.Close()
	if res.Stalled || res.Completed != int64(len(arrivals)) {
		t.Fatalf("traced run: %+v", res)
	}
	if trc.Sampled() != int64(len(arrivals)) {
		t.Fatalf("sampled %d of %d", trc.Sampled(), len(arrivals))
	}
	if dataplane.StageReplayWait.String() != "replay_wait" {
		t.Fatalf("replay_wait stage renders as %q", dataplane.StageReplayWait.String())
	}
	stages := trc.StageStats()
	if len(stages) == 0 {
		t.Fatal("no stage stats collected from a sample-everything run")
	}
}

// TestLatencyMergeAcrossWorkers checks the per-worker histogram drain.
func TestLatencyMergeAcrossWorkers(t *testing.T) {
	prog, err := apps.Synthetic(0, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.RandomFields(prog, workload.Spec{Packets: 800, Pipelines: 4, Seed: 21})
	e := New(prog, Config{Workers: 4, RecordOutputs: true})
	res := e.Run(arrivals)
	if res.Latency.Total() != len(arrivals) {
		t.Fatalf("merged latency total %d, want %d", res.Latency.Total(), len(arrivals))
	}
	perWorker := 0
	for _, w := range e.workers {
		perWorker += w.lat.Total()
	}
	if perWorker != len(arrivals) {
		t.Fatalf("per-worker totals sum to %d, want %d", perWorker, len(arrivals))
	}
}
