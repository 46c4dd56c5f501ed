// Command mp5sim runs one simulation of a packet-processing program on a
// chosen switch architecture and prints the throughput, queueing, ordering
// and equivalence results.
//
// Examples:
//
//	mp5sim -app sequencer -arch mp5 -k 4 -packets 50000
//	mp5sim -synthetic 4 -regsize 512 -pattern skewed -arch recirculation
//	mp5sim -program prog.domino -arch mp5 -k 8 -verify
//	mp5sim -app sequencer -engine dataplane -workers 4
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/screp"
	"mp5/internal/telemetry"
	"mp5/internal/viz"
	"mp5/internal/workload"
)

var archNames = map[string]core.Arch{
	"mp5":           core.ArchMP5,
	"mp5-nod4":      core.ArchMP5NoD4,
	"ideal":         core.ArchIdeal,
	"naive":         core.ArchNaive,
	"static-shard":  core.ArchStaticShard,
	"recirculation": core.ArchRecirc,
	"recirc":        core.ArchRecirc,
}

func main() {
	app := flag.String("app", "", "built-in application: flowlet, conga, wfq, sequencer")
	programPath := flag.String("program", "", "Domino program file (uses a synthetic uniform workload over its fields)")
	synthetic := flag.Int("synthetic", 0, "use the synthetic program with this many stateful stages")
	regSize := flag.Int("regsize", 512, "register array size for -synthetic")
	pattern := flag.String("pattern", "uniform", "access pattern for -synthetic: uniform or skewed")
	pktSize := flag.Int("pktsize", 64, "packet size in bytes for -synthetic")
	archName := flag.String("arch", "mp5", "architecture: mp5, mp5-nod4, ideal, naive, static-shard, recirculation")
	k := flag.Int("k", core.DefaultPipelines, "number of pipelines")
	packets := flag.Int("packets", 20000, "trace length")
	seed := flag.Int64("seed", 1, "workload and sharding seed")
	verify := flag.Bool("verify", true, "check functional equivalence against the single-pipeline reference")
	traceN := flag.Int("trace", 0, "print the first N simulator events (admissions, executions, steering, queueing, egress)")
	timelineN := flag.Int("timeline", 0, "render a pipeline-occupancy grid for the first N cycles")
	crossLat := flag.Int64("crosslat", 0, "inter-pipeline link latency in cycles (chiplet exploration)")
	traceJSONL := flag.String("trace-jsonl", "", "write the event stream, per-interval samples, and the run summary as JSONL to this file")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus-text metrics snapshot to this file at the end of the run")
	sampleInterval := flag.Int64("sample-interval", 0, "time-series sampling interval in cycles (0 disables; defaults to 1000 when -trace-jsonl or -metrics-out is set)")
	topIndices := flag.Int("top-indices", 0, "print the N hottest register indices (by resolution count) after the run")
	fullSweep := flag.Bool("full-sweep", false, "use the legacy per-cycle scheduler instead of the event-driven one (debugging aid; observable behaviour is identical, sparse traces run slower)")
	engineName := flag.String("engine", "sim", "execution engine: sim (cycle-accurate simulator), dataplane (concurrent sharded engine), or screp (state-compute replication; both concurrent engines ignore -arch and the event-stream flags)")
	workers := flag.Int("workers", 0, "worker count for -engine=dataplane or -engine=screp (0 = GOMAXPROCS)")
	flag.Parse()

	if *engineName != "sim" && *engineName != "dataplane" && *engineName != "screp" {
		fatal(fmt.Errorf("unknown engine %q (want sim, dataplane or screp)", *engineName))
	}
	arch, ok := archNames[*archName]
	if !ok {
		fatal(fmt.Errorf("unknown architecture %q", *archName))
	}

	var prog *ir.Program
	var trace []core.Arrival
	switch {
	case *app != "":
		a, err := apps.ByName(*app)
		if err != nil {
			fatal(err)
		}
		prog = a.MustCompile(compiler.TargetMP5)
		trace = workload.Flows(prog, workload.FlowSpec{
			Packets: *packets, Pipelines: *k, Seed: *seed,
		}, a.Bind)
	case *synthetic > 0:
		var err error
		prog, err = apps.Synthetic(*synthetic, *regSize, compiler.DefaultMaxStages)
		if err != nil {
			fatal(err)
		}
		pat := workload.Uniform
		if *pattern == "skewed" {
			pat = workload.Skewed
		}
		trace = workload.Synthetic(prog, workload.Spec{
			Packets: *packets, Pipelines: *k, Pattern: pat,
			PacketSize: *pktSize, Seed: *seed,
		}, *synthetic, *regSize)
	case *programPath != "":
		data, err := os.ReadFile(*programPath)
		if err != nil {
			fatal(err)
		}
		prog, err = compiler.Compile(string(data), compiler.Options{Target: compiler.TargetMP5})
		if err != nil {
			fatal(err)
		}
		trace = randomFieldTrace(prog, *packets, *k, *seed)
	default:
		fmt.Fprintln(os.Stderr, "usage: mp5sim (-app NAME | -synthetic N | -program FILE) [flags]")
		os.Exit(2)
	}

	if *engineName == "dataplane" {
		os.Exit(runDataplane(prog, trace, *workers, *verify, *metricsOut))
	}
	if *engineName == "screp" {
		os.Exit(runScrep(prog, trace, *workers, *verify, *metricsOut))
	}

	cfg := core.Config{
		Arch: arch, Pipelines: *k, Seed: *seed,
		CrossLatency:  *crossLat,
		RecordOutputs: *verify, RecordAccessOrder: true,
	}
	var hooks []func(core.Event)
	if *traceN > 0 {
		remaining := *traceN
		hooks = append(hooks, func(e core.Event) {
			if remaining > 0 {
				fmt.Println(e)
				remaining--
			}
		})
	}
	var timeline *viz.Timeline
	if *timelineN > 0 {
		timeline = viz.NewTimeline(prog.NumStages(), *k, 0, *timelineN)
		hooks = append(hooks, timeline.Hook())
	}

	// Telemetry: JSONL event/sample/span stream, metrics registry, and
	// the span builder are all pure Trace consumers.
	if *sampleInterval < 0 {
		fatal(fmt.Errorf("-sample-interval must be non-negative, got %d", *sampleInterval))
	}
	telemetryOn := *traceJSONL != "" || *metricsOut != "" || *sampleInterval > 0
	interval := *sampleInterval
	if telemetryOn && interval == 0 {
		interval = 1000
	}
	var (
		jsonl   *telemetry.JSONL
		jsonlF  *os.File
		reg     *telemetry.Registry
		metrics *telemetry.SimMetrics
		sampler *telemetry.Sampler
		spans   *telemetry.SpanBuilder
	)
	if telemetryOn {
		reg = telemetry.NewRegistry()
		metrics = telemetry.NewSimMetrics(reg)
		hooks = append(hooks, metrics.Hook())
		if *traceJSONL != "" {
			f, err := os.Create(*traceJSONL)
			if err != nil {
				fatal(err)
			}
			jsonlF = f
			jsonl = telemetry.NewJSONL(f)
			hooks = append(hooks, jsonl.EventHook())
			sampler = telemetry.NewSampler(interval, *k, jsonl.SampleSink())
		} else {
			sampler = telemetry.NewSampler(interval, *k, nil)
		}
		spans = telemetry.NewSpanBuilder(nil)
		hooks = append(hooks, sampler.Hook(), spans.Hook())
	}
	if len(hooks) > 0 {
		cfg.Trace = telemetry.Tee(hooks...)
	}
	sim := core.NewSimulator(prog, cfg)
	sim.SetFullSweep(*fullSweep)
	res := sim.Run(trace)
	if timeline != nil {
		fmt.Print(timeline.Render())
	}

	fmt.Printf("program            %s (%d stages, %d resolution, %d registers)\n",
		prog.Name, prog.NumStages(), prog.ResolutionStages, len(prog.Regs))
	fmt.Printf("architecture       %v, %d pipelines\n", arch, *k)
	fmt.Printf("packets            %d injected, %d completed, %d dropped\n",
		res.Injected, res.Completed,
		res.Injected-res.Completed)
	fmt.Printf("throughput         %.3f of offered rate\n", res.Throughput)
	fmt.Printf("cycles             %d (arrivals span %d)\n", res.Cycles, res.LastArrival-res.FirstArrival+1)
	fmt.Printf("max queue depth    %d (ingress %d)\n", res.MaxFIFODepth, res.MaxIngressDepth)
	fmt.Printf("shard moves        %d\n", res.ShardMoves)
	fmt.Printf("recirculations     %d (%.2f per packet)\n", res.Recirculations,
		float64(res.Recirculations)/float64(max64(res.Injected, 1)))
	fmt.Printf("C1 violations      %d packets (%.2f%%)\n", res.C1Violating, 100*res.ViolationFraction)
	fmt.Printf("reordered egress   %d packets\n", res.Reordered)

	if telemetryOn {
		sampler.Close()
		summary := spans.Summary()
		spans.FillHistogram(metrics.Latency)
		fmt.Printf("latency            mean %.1f, p50 %d, p99 %d, max %d cycles\n",
			summary.Mean, summary.P50, summary.P99, summary.Max)
		fmt.Printf("latency breakdown  queue wait %.1f + service %.1f cycles (mean)\n",
			summary.MeanQueueWait, summary.MeanService)
		if bad := metrics.Reconcile(res); len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "mp5sim: telemetry/result reconciliation failed:")
			for _, m := range bad {
				fmt.Fprintln(os.Stderr, "  "+m)
			}
			os.Exit(1)
		}
		if jsonl != nil {
			jsonl.Object(struct {
				Type    string                   `json:"type"`
				Result  *core.Result             `json:"result"`
				Latency telemetry.LatencySummary `json:"latency"`
			}{"run", res, summary})
			if err := jsonl.Flush(); err != nil {
				fatal(err)
			}
			if err := jsonlF.Close(); err != nil {
				fatal(err)
			}
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fatal(err)
			}
			if err := reg.WriteProm(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	if *topIndices > 0 {
		hot := sim.Shard().TopIndices(*topIndices)
		fmt.Printf("top %d hot indices (by resolutions):\n", len(hot))
		for rank, h := range hot {
			idx := fmt.Sprint(h.Idx)
			if h.Idx < 0 {
				idx = "*" // unsharded: whole array
			}
			fmt.Printf("  %2d. r%d[%s]  %d accesses  (pipe %d)\n",
				rank+1, h.Reg, idx, h.Count, h.Pipe)
		}
	}

	if res.Stalled {
		// A stalled run exceeded its cycle budget with packets still in
		// flight; print the loss breakdown so scripts can diagnose it.
		fmt.Fprintf(os.Stderr, "mp5sim: run stalled after %d cycles (%d of %d packets completed)\n",
			res.Cycles, res.Completed, res.Injected)
		fmt.Fprintf(os.Stderr, "  drops: data=%d insert=%d ingress=%d starved=%d phantom=%d (in flight: %d)\n",
			res.DroppedData, res.DroppedInsert, res.DroppedIngress, res.DroppedStarved,
			res.DroppedPhantom, res.Injected-res.Completed-res.PacketDrops())
		os.Exit(3)
	}

	if *verify {
		if res.Completed != res.Injected {
			fmt.Println("equivalence        skipped (packet loss; see Sec 3.5.1)")
			return
		}
		rep := equiv.Check(prog, sim, trace)
		if rep.Equivalent {
			fmt.Printf("equivalence        OK (%d packets, all registers)\n", rep.PacketsCompared)
		} else {
			fmt.Printf("equivalence        FAILED: %d mismatches, e.g. %v\n",
				rep.Total, rep.Mismatches[0])
			os.Exit(1)
		}
	}
}

// runDataplane executes the trace on the concurrent goroutine engine instead
// of the cycle-accurate simulator and prints the analogous summary. Verify
// checks both state/output equivalence and the per-slot C1 access order
// against the single-pipeline reference. Returns the process exit code.
func runDataplane(prog *ir.Program, trace []core.Arrival, workers int, verify bool, metricsOut string) int {
	cfg := dataplane.Config{
		Workers:           workers,
		RecordOutputs:     verify,
		RecordAccessOrder: verify,
		RecordEgressOrder: true,
	}
	var reg *telemetry.Registry
	if metricsOut != "" {
		reg = telemetry.NewRegistry()
		cfg.Metrics = dataplane.NewMetrics(reg)
	}
	eng := dataplane.New(prog, cfg)
	res := eng.Run(trace)

	fmt.Printf("program            %s (%d stages, %d resolution, %d registers)\n",
		prog.Name, prog.NumStages(), prog.ResolutionStages, len(prog.Regs))
	fmt.Printf("engine             dataplane, %d workers (GOMAXPROCS %d)\n",
		res.Workers, runtime.GOMAXPROCS(0))
	fmt.Printf("packets            %d injected, %d completed\n", res.Injected, res.Completed)
	fmt.Printf("throughput         %.0f packets/sec (%.2f ms elapsed)\n",
		res.PktsPerSec, float64(res.Elapsed.Microseconds())/1000)
	fmt.Printf("crossbar           %d steers, %d parks, %d wasted visits\n",
		res.Steers, res.Parks, res.Wasted)
	fmt.Printf("reordered egress   %d packets\n", res.Reordered)
	if res.Latency != nil && res.Latency.Total() > 0 {
		fmt.Printf("latency            p50 %.0f µs, p99 %.0f µs\n",
			res.Latency.Quantile(0.5), res.Latency.Quantile(0.99))
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteProm(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if res.Stalled {
		fmt.Fprintf(os.Stderr, "mp5sim: dataplane stalled (%d of %d packets completed)\n",
			res.Completed, res.Injected)
		return 3
	}
	if verify {
		if res.Completed != res.Injected {
			fmt.Println("equivalence        skipped (packet loss)")
			return 0
		}
		ref := equiv.Run(prog, trace)
		rep := ref.Check(eng.FinalRegs(), eng.Outputs())
		if !rep.Equivalent {
			fmt.Printf("equivalence        FAILED: %d mismatches, e.g. %v\n",
				rep.Total, rep.Mismatches[0])
			return 1
		}
		if !reflect.DeepEqual(ref.Order, eng.AccessOrders()) {
			fmt.Println("equivalence        FAILED: C1 access order diverges from the reference")
			return 1
		}
		fmt.Printf("equivalence        OK (%d packets, all registers, C1 order)\n", rep.PacketsCompared)
	}
	return 0
}

// runScrep executes the trace on the state-compute-replication engine and
// prints the analogous summary; in place of the sharded engine's crossbar
// columns it reports the replication overhead (published deltas, replayed
// writes). Verify holds it to the same state/output and C1-order oracles.
func runScrep(prog *ir.Program, trace []core.Arrival, workers int, verify bool, metricsOut string) int {
	cfg := screp.Config{
		Workers:           workers,
		RecordOutputs:     verify,
		RecordAccessOrder: verify,
		RecordEgressOrder: true,
	}
	var reg *telemetry.Registry
	if metricsOut != "" {
		reg = telemetry.NewRegistry()
		cfg.Metrics = screp.NewMetrics(reg)
	}
	eng := screp.New(prog, cfg)
	res := eng.Run(trace)

	fmt.Printf("program            %s (%d stages, %d resolution, %d registers)\n",
		prog.Name, prog.NumStages(), prog.ResolutionStages, len(prog.Regs))
	fmt.Printf("engine             screp (state-compute replication), %d replicas (GOMAXPROCS %d)\n",
		res.Workers, runtime.GOMAXPROCS(0))
	fmt.Printf("packets            %d injected, %d completed\n", res.Injected, res.Completed)
	fmt.Printf("throughput         %.0f packets/sec (%.2f ms elapsed)\n",
		res.PktsPerSec, float64(res.Elapsed.Microseconds())/1000)
	fmt.Printf("replication        %d deltas published, %d writes replayed (%.2f per packet)\n",
		res.DeltasPublished, res.WritesReplayed,
		float64(res.WritesReplayed)/float64(max64(res.Injected, 1)))
	fmt.Printf("reordered egress   %d packets\n", res.Reordered)
	if res.Latency != nil && res.Latency.Total() > 0 {
		fmt.Printf("latency            p50 %.0f µs, p99 %.0f µs\n",
			res.Latency.Quantile(0.5), res.Latency.Quantile(0.99))
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteProm(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if res.Stalled {
		fmt.Fprintf(os.Stderr, "mp5sim: screp stalled (%d of %d packets completed)\n",
			res.Completed, res.Injected)
		return 3
	}
	if verify {
		if res.Completed != res.Injected {
			fmt.Println("equivalence        skipped (packet loss)")
			return 0
		}
		ref := equiv.Run(prog, trace)
		rep := ref.Check(eng.FinalRegs(), eng.Outputs())
		if !rep.Equivalent {
			fmt.Printf("equivalence        FAILED: %d mismatches, e.g. %v\n",
				rep.Total, rep.Mismatches[0])
			return 1
		}
		if !reflect.DeepEqual(ref.Order, eng.AccessOrders()) {
			fmt.Println("equivalence        FAILED: C1 access order diverges from the reference")
			return 1
		}
		fmt.Printf("equivalence        OK (%d packets, all registers, C1 order)\n", rep.PacketsCompared)
	}
	return 0
}

// randomFieldTrace drives an arbitrary user program with uniformly random
// header fields at line rate.
func randomFieldTrace(prog *ir.Program, packets, k int, seed int64) []core.Arrival {
	spec := workload.Spec{Packets: packets, Pipelines: k, Seed: seed}
	return workload.RandomFields(prog, spec)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mp5sim:", err)
	os.Exit(1)
}
