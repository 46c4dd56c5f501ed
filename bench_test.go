package mp5_test

import (
	"io"
	"testing"

	"mp5"
	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/ir"
	"mp5/internal/telemetry"
	"mp5/internal/workload"
)

// Component microbenchmarks: the reproduction's own performance. The
// paper's tables and figures come from cmd/mp5bench, whose output
// EXPERIMENTS.md holds.

// BenchmarkCompileFlowlet measures end-to-end Domino → MP5 compilation.
func BenchmarkCompileFlowlet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(apps.FlowletSource, compiler.Options{Target: compiler.TargetMP5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorPacketRate measures simulated packets per wall-clock
// second for the default configuration: 4 stateful stages of 512 entries,
// 20,000 uniform packets at k = 4 line rate, a fresh simulator per run and
// no trace hook. It is also the disabled side of two pairs: tracing
// (BenchmarkTraceTelemetry) and scheduling (BenchmarkCoreDenseFullSweep).
func BenchmarkSimulatorPacketRate(b *testing.B) { benchCore(b, false, false) }

// BenchmarkSimulatorScatter runs the engine-scatter workload's prediction
// shape: eight stateful stages of 8 entries, 8,192 skewed packets whose hot
// set is re-drawn every 256 cycles, at k = 4 line rate. The trace backs up
// into stage FIFOs thousands deep, so most packets are live at once and the
// simulator's per-packet store dominates.
func BenchmarkSimulatorScatter(b *testing.B) {
	prog, err := apps.Synthetic(8, 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	benchSim(b, prog, workload.Synthetic(prog, workload.Spec{
		Packets: 8192, Pipelines: 4, Seed: 1, Pattern: workload.Skewed, ChurnInterval: 256,
	}, 8, 8), false)
}

// benchSim runs trace through a fresh ArchMP5 k = 4 simulator per
// iteration, with no trace hook, on the chosen scheduler.
func benchSim(b *testing.B, prog *ir.Program, trace []core.Arrival, fullSweep bool) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(prog, core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 1})
		sim.SetFullSweep(fullSweep)
		sim.Run(trace)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkTraceTelemetry runs the same simulation with the full telemetry
// stack attached (the recorder and the JSONL event stream, to io.Discard)
// to quantify the enabled-path cost.
func BenchmarkTraceTelemetry(b *testing.B) {
	prog, err := apps.Synthetic(4, 512, 16)
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{Packets: 20000, Pipelines: 4, Seed: 1}, 4, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jsonl := telemetry.NewJSONL(io.Discard)
		rec := telemetry.NewRecorder(telemetry.NewRegistry(), 1000, 4, jsonl.SampleSink())
		sim := core.NewSimulator(prog, core.Config{
			Arch: core.ArchMP5, Pipelines: 4, Seed: 1,
			Trace: telemetry.Tee(jsonl.EventHook(), rec.Hook()),
		})
		sim.Run(trace)
		rec.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// sparsifyTrace spreads a dense trace into bursts of `burst` packets
// separated by `gap` idle cycles — the bursty arrival shape of the paper's
// skewed experiments, and the case the event-driven scheduler exists for:
// the legacy core walks every idle cycle, the event-driven core jumps them.
func sparsifyTrace(trace []core.Arrival, burst int, gap int64) []core.Arrival {
	out := make([]core.Arrival, len(trace))
	for i, a := range trace {
		a.Cycle += int64(i/burst) * gap
		out[i] = a
	}
	return out
}

func benchCore(b *testing.B, sparse, fullSweep bool) {
	prog, err := apps.Synthetic(4, 512, 16)
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{Packets: 20000, Pipelines: 4, Seed: 1}, 4, 512)
	if sparse {
		trace = sparsifyTrace(trace, 256, 20000)
	}
	benchSim(b, prog, trace, fullSweep)
}

// BenchmarkCoreSparseBursty / BenchmarkCoreSparseBurstyFullSweep: the
// sparse-trace pair, where the event-driven scheduler's idle-cycle skip
// pays most (bench/README.md: core.host_ns_per_pkt vs
// core.fullsweep_ns_per_pkt carry the tracked numbers).
func BenchmarkCoreSparseBursty(b *testing.B)          { benchCore(b, true, false) }
func BenchmarkCoreSparseBurstyFullSweep(b *testing.B) { benchCore(b, true, true) }

// BenchmarkCoreDenseFullSweep is the full-load trace of
// BenchmarkSimulatorPacketRate under the legacy full-sweep scheduler: with
// every cycle busy the occupancy skip lists must cost ≤ 5% over the plain
// sweeps.
func BenchmarkCoreDenseFullSweep(b *testing.B) { benchCore(b, false, true) }

// BenchmarkReferenceExecutor measures the single-pipeline ground-truth
// executor.
func BenchmarkReferenceExecutor(b *testing.B) {
	prog, err := apps.Synthetic(4, 512, 16)
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{Packets: 20000, Pipelines: 4, Seed: 1}, 4, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp5.Reference(prog, trace)
	}
}
