package mp5_test

import (
	"io"
	"sync"
	"testing"

	"mp5"
	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/experiments"
	"mp5/internal/telemetry"
	"mp5/internal/workload"
)

// The Benchmark* functions below regenerate the paper's tables and figures
// (one benchmark per table/figure) and report domain metrics — normalized
// throughput, simulated packets per second — alongside the usual ns/op.
// Each experiment's formatted table is printed once per `go test -bench`
// run via b.Logf; a smaller scale than mp5bench keeps iterations fast.

var benchScale = experiments.Scale{Packets: 10000, Seeds: 1}

var logOnce sync.Map

func logTable(b *testing.B, name string, f func() *experiments.Table) {
	if _, done := logOnce.LoadOrStore(name, true); done {
		return
	}
	b.Logf("\n%s", f().Format())
}

// BenchmarkTable1 regenerates the chip area / clock table (E1).
func BenchmarkTable1(b *testing.B) {
	logTable(b, "table1", experiments.Table1)
	for i := 0; i < b.N; i++ {
		experiments.Table1()
	}
}

// BenchmarkSRAMOverhead regenerates the §4.2 SRAM overhead numbers (E2).
func BenchmarkSRAMOverhead(b *testing.B) {
	logTable(b, "sram", experiments.SRAM)
	for i := 0; i < b.N; i++ {
		experiments.SRAM()
	}
}

// BenchmarkD2Sharding regenerates the dynamic-vs-static sharding
// microbenchmark (E3, §4.3.2).
func BenchmarkD2Sharding(b *testing.B) {
	logTable(b, "d2", func() *experiments.Table { return experiments.D2Sharding(benchScale) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.D2Sharding(experiments.Scale{Packets: 5000, Seeds: 1})
	}
}

// BenchmarkD4Violations regenerates the order-enforcement ablation (E4).
func BenchmarkD4Violations(b *testing.B) {
	logTable(b, "d4", func() *experiments.Table { return experiments.D4Violations(benchScale) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.D4Violations(experiments.Scale{Packets: 5000, Seeds: 1})
	}
}

// BenchmarkD3Steering regenerates the steering-vs-recirculation
// microbenchmark including the worse-than-naive crossover (E5).
func BenchmarkD3Steering(b *testing.B) {
	logTable(b, "d3", func() *experiments.Table { return experiments.D3Steering(benchScale) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.D3Steering(experiments.Scale{Packets: 5000, Seeds: 1})
	}
}

// benchFig7 shares the sweep benchmarks' shape: log the full figure once,
// then time a single representative cell per iteration.
func benchFig7(b *testing.B, name string, table func(experiments.Scale) *experiments.Table, cell experiments.SynthConfig) {
	logTable(b, name, func() *experiments.Table { return table(benchScale) })
	b.ResetTimer()
	var tput float64
	for i := 0; i < b.N; i++ {
		cfg := cell
		cfg.Seed = int64(i)
		r := experiments.RunSynth(cfg)
		tput = r.Throughput
	}
	b.ReportMetric(tput, "tput")
}

// BenchmarkFig7a — throughput vs number of pipelines (E6).
func BenchmarkFig7a(b *testing.B) {
	benchFig7(b, "fig7a", experiments.Fig7a, experiments.SynthConfig{
		Arch: core.ArchMP5, Pipelines: 8, Stateful: 4, Packets: 5000,
	})
}

// BenchmarkFig7b — throughput vs stateful stages (E7).
func BenchmarkFig7b(b *testing.B) {
	benchFig7(b, "fig7b", experiments.Fig7b, experiments.SynthConfig{
		Arch: core.ArchMP5, Pipelines: 4, Stateful: 10, Packets: 5000,
	})
}

// BenchmarkFig7c — throughput vs register size (E8).
func BenchmarkFig7c(b *testing.B) {
	benchFig7(b, "fig7c", experiments.Fig7c, experiments.SynthConfig{
		Arch: core.ArchMP5, Pipelines: 4, Stateful: 4, RegSize: 4096, Packets: 5000,
	})
}

// BenchmarkFig7d — throughput vs packet size (E9).
func BenchmarkFig7d(b *testing.B) {
	benchFig7(b, "fig7d", experiments.Fig7d, experiments.SynthConfig{
		Arch: core.ArchMP5, Pipelines: 4, Stateful: 4, PacketSize: 128, Packets: 5000,
	})
}

// BenchmarkFig8 regenerates the real-application figure (E10–E14) and
// times one flowlet run per iteration.
func BenchmarkFig8(b *testing.B) {
	logTable(b, "fig8", func() *experiments.Table { return experiments.Fig8(benchScale) })
	app := apps.Flowlet()
	prog := app.MustCompile(compiler.TargetMP5)
	trace := workload.Flows(prog, workload.FlowSpec{Packets: 5000, Pipelines: 4, Seed: 1}, app.Bind)
	b.ResetTimer()
	var tput float64
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(prog, core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: int64(i)})
		tput = sim.Run(trace).Throughput
	}
	b.ReportMetric(tput, "tput")
}

// --- Component microbenchmarks (not paper artifacts, but useful for
// tracking the reproduction's own performance) ---

// BenchmarkCompileFlowlet measures end-to-end Domino → MP5 compilation.
func BenchmarkCompileFlowlet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(apps.FlowletSource, compiler.Options{Target: compiler.TargetMP5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorPacketRate measures simulated packets per wall-clock
// second for the default configuration.
func BenchmarkSimulatorPacketRate(b *testing.B) {
	prog, err := apps.Synthetic(4, 512, 16)
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{Packets: 20000, Pipelines: 4, Seed: 1}, 4, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(prog, core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 1})
		sim.Run(trace)
	}
	b.StopTimer()
	pktsPerOp := float64(len(trace))
	b.ReportMetric(pktsPerOp*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkTraceDisabled is the telemetry overhead guard: the exact
// simulator loop of BenchmarkSimulatorPacketRate with Config.Trace unset.
// Telemetry must be pay-for-use — compare against BenchmarkTraceTelemetry
// to see the cost of the full consumer stack, and against the seed's
// BenchmarkSimulatorPacketRate numbers to confirm the disabled path did not
// regress (acceptance: within 2%).
func BenchmarkTraceDisabled(b *testing.B) {
	prog, err := apps.Synthetic(4, 512, 16)
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{Packets: 20000, Pipelines: 4, Seed: 1}, 4, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(prog, core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 1})
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(prog, core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 1})
		sim.SetFullSweep(fullSweep)
		sim.Run(trace)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkCoreSparseBursty / BenchmarkCoreSparseBurstyFullSweep: the
// sparse-trace pair, where the event-driven scheduler's idle-cycle skip
// pays most (bench/README.md: core.host_ns_per_pkt vs
// core.fullsweep_ns_per_pkt carry the tracked numbers).
func BenchmarkCoreSparseBursty(b *testing.B)          { benchCore(b, true, false) }
func BenchmarkCoreSparseBurstyFullSweep(b *testing.B) { benchCore(b, true, true) }

// BenchmarkCoreDense / BenchmarkCoreDenseFullSweep: the full-load pair —
// with every cycle busy the occupancy skip lists must cost ≤ 5% over the
// plain sweeps.
func BenchmarkCoreDense(b *testing.B)          { benchCore(b, false, false) }
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

// BenchmarkStageFIFO measures the push/insert/pop cycle of the k-FIFO.
func BenchmarkStageFIFO(b *testing.B) {
	f := core.NewStageFIFO(4, 0)
	p := &core.Packet{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(i)
		p.ID = id
		seq, _ := f.PushPhantom(i%4, p, id)
		f.Insert(i%4, seq, p, id)
		_, fi, _ := f.Head()
		f.PopHead(fi)
	}
}
