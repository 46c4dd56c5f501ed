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
	"io"
	"os"
	"runtime"
	"time"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/screp"
	"mp5/internal/stats"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. The return value is
// the process exit code: 1 for a failed verdict or reconciliation or an I/O
// error, 2 for a usage error, 3 for a stalled run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mp5sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "built-in application: flowlet, conga, wfq, sequencer")
	programPath := fs.String("program", "", "Domino program file (uses a synthetic uniform workload over its fields)")
	synthetic := fs.Int("synthetic", 0, "use the synthetic program with this many stateful stages")
	regSize := fs.Int("regsize", 512, "register array size for -synthetic")
	pattern := fs.String("pattern", "uniform", "access pattern for -synthetic: uniform or skewed")
	pktSize := fs.Int("pktsize", 64, "packet size in bytes for -synthetic")
	archName := fs.String("arch", "mp5", "architecture: mp5, mp5-nod4, ideal, naive, static-shard, recirculation")
	k := fs.Int("k", core.DefaultPipelines, "number of pipelines")
	packets := fs.Int("packets", 20000, "trace length")
	seed := fs.Int64("seed", 1, "workload and sharding seed")
	verify := fs.Bool("verify", true, "check functional equivalence against the single-pipeline reference")
	traceN := fs.Int("trace", 0, "print the first N simulator events (admissions, executions, steering, queueing, egress)")
	timelineN := fs.Int("timeline", 0, "render a pipeline-occupancy grid for the first N cycles")
	crossLat := fs.Int64("crosslat", 0, "inter-pipeline link latency in cycles (chiplet exploration)")
	traceJSONL := fs.String("trace-jsonl", "", "write the event stream, per-interval samples, and the run summary as JSONL to this file")
	metricsOut := fs.String("metrics-out", "", "write a Prometheus-text metrics snapshot to this file at the end of the run")
	sampleInterval := fs.Int64("sample-interval", 0, "time-series sampling interval in cycles (0 disables; defaults to 1000 when -trace-jsonl or -metrics-out is set)")
	topIndices := fs.Int("top-indices", 0, "print the N hottest register indices (by resolution count) after the run")
	engineName := fs.String("engine", "sim", "execution engine: sim (cycle-accurate simulator), dataplane (concurrent sharded engine), or screp (state-compute replication; both concurrent engines ignore -arch and the event-stream flags)")
	workers := fs.Int("workers", 0, "worker count for -engine=dataplane or -engine=screp (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "mp5sim: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mp5sim:", err)
		return 1
	}

	if *engineName != "sim" && *engineName != "dataplane" && *engineName != "screp" {
		return usage("unknown engine %q (want sim, dataplane or screp)", *engineName)
	}
	arch, ok := archNames[*archName]
	if !ok {
		return usage("unknown architecture %q", *archName)
	}
	if *sampleInterval < 0 {
		return usage("-sample-interval must be non-negative, got %d", *sampleInterval)
	}

	var prog *ir.Program
	var trace []core.Arrival
	switch {
	case *app != "":
		a, err := apps.ByName(*app)
		if err != nil {
			return usage("%v", err)
		}
		prog = a.MustCompile(compiler.TargetMP5)
		trace = workload.Flows(prog, workload.FlowSpec{
			Packets: *packets, Pipelines: *k, Seed: *seed,
		}, a.Bind)
	case *synthetic > 0:
		var err error
		prog, err = apps.Synthetic(*synthetic, *regSize, compiler.DefaultMaxStages)
		if err != nil {
			return fail(err)
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
			return fail(err)
		}
		prog, err = compiler.Compile(string(data), compiler.Options{Target: compiler.TargetMP5})
		if err != nil {
			return fail(err)
		}
		trace = randomFieldTrace(prog, *packets, *k, *seed)
	default:
		fmt.Fprintln(stderr, "usage: mp5sim (-app NAME | -synthetic N | -program FILE) [flags]")
		return 2
	}

	if *engineName != "sim" {
		return runEngine(*engineName, prog, trace, *workers, *verify, *metricsOut, stdout, stderr)
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
				fmt.Fprintln(stdout, e)
				remaining--
			}
		})
	}
	var timeline *viz.Timeline
	if *timelineN > 0 {
		timeline = viz.NewTimeline(prog.NumStages(), *k, 0, *timelineN)
		hooks = append(hooks, timeline.Hook())
	}

	// Telemetry: the JSONL event stream and the recorder (metrics,
	// samples, latency) are pure Trace consumers.
	telemetryOn := *traceJSONL != "" || *metricsOut != "" || *sampleInterval > 0
	interval := *sampleInterval
	if telemetryOn && interval == 0 {
		interval = 1000
	}
	var (
		jsonl  *telemetry.JSONL
		jsonlF *os.File
		reg    *telemetry.Registry
		rec    *telemetry.Recorder
	)
	if telemetryOn {
		reg = telemetry.NewRegistry()
		var sink func(telemetry.Sample)
		if *traceJSONL != "" {
			f, err := os.Create(*traceJSONL)
			if err != nil {
				return fail(err)
			}
			jsonlF = f
			jsonl = telemetry.NewJSONL(f)
			hooks = append(hooks, jsonl.EventHook())
			sink = jsonl.SampleSink()
		}
		rec = telemetry.NewRecorder(reg, interval, *k, sink)
		hooks = append(hooks, rec.Hook())
	}
	if len(hooks) > 0 {
		cfg.Trace = telemetry.Tee(hooks...)
	}
	sim := core.NewSimulator(prog, cfg)
	res := sim.Run(trace)
	if timeline != nil {
		fmt.Fprint(stdout, timeline.Render())
	}

	fmt.Fprintf(stdout, "program            %s (%d stages, %d resolution, %d registers)\n",
		prog.Name, prog.NumStages(), prog.ResolutionStages, len(prog.Regs))
	fmt.Fprintf(stdout, "architecture       %v, %d pipelines\n", arch, *k)
	fmt.Fprintf(stdout, "packets            %d injected, %d completed, %d dropped\n",
		res.Injected, res.Completed,
		res.Injected-res.Completed)
	fmt.Fprintf(stdout, "throughput         %.3f of offered rate\n", res.Throughput)
	fmt.Fprintf(stdout, "cycles             %d (arrivals span %d)\n", res.Cycles, res.LastArrival-res.FirstArrival+1)
	fmt.Fprintf(stdout, "max queue depth    %d (ingress %d)\n", res.MaxFIFODepth, res.MaxIngressDepth)
	fmt.Fprintf(stdout, "shard moves        %d\n", res.ShardMoves)
	fmt.Fprintf(stdout, "recirculations     %d (%.2f per packet)\n", res.Recirculations,
		float64(res.Recirculations)/float64(max64(res.Injected, 1)))
	fmt.Fprintf(stdout, "C1 violations      %d packets (%.2f%%)\n", res.C1Violating, 100*res.ViolationFraction)
	fmt.Fprintf(stdout, "reordered egress   %d packets\n", res.Reordered)

	if telemetryOn {
		rec.Close()
		summary := rec.Summary()
		fmt.Fprintf(stdout, "latency            mean %.1f, p50 %d, p99 %d, max %d cycles\n",
			summary.Mean, summary.P50, summary.P99, summary.Max)
		fmt.Fprintf(stdout, "latency breakdown  queue wait %.1f + service %.1f cycles (mean)\n",
			summary.MeanQueueWait, summary.MeanService)
		if bad := rec.Reconcile(res); len(bad) > 0 {
			fmt.Fprintln(stderr, "mp5sim: telemetry/result reconciliation failed:")
			for _, m := range bad {
				fmt.Fprintln(stderr, "  "+m)
			}
			return 1
		}
		if jsonl != nil {
			jsonl.Object(struct {
				Type    string                   `json:"type"`
				Result  *core.Result             `json:"result"`
				Latency telemetry.LatencySummary `json:"latency"`
			}{"run", res, summary})
			if err := jsonl.Flush(); err != nil {
				return fail(err)
			}
			if err := jsonlF.Close(); err != nil {
				return fail(err)
			}
		}
		if err := writeProm(*metricsOut, reg); err != nil {
			return fail(err)
		}
	}

	if *topIndices > 0 {
		hot := sim.Shard().TopIndices(*topIndices)
		fmt.Fprintf(stdout, "top %d hot indices (by resolutions):\n", len(hot))
		for rank, h := range hot {
			idx := fmt.Sprint(h.Idx)
			if h.Idx < 0 {
				idx = "*" // unsharded: whole array
			}
			fmt.Fprintf(stdout, "  %2d. r%d[%s]  %d accesses  (pipe %d)\n",
				rank+1, h.Reg, idx, h.Count, h.Pipe)
		}
	}

	if res.Stalled {
		// A stalled run exceeded its cycle budget with packets still in
		// flight; print the loss breakdown so scripts can diagnose it.
		fmt.Fprintf(stderr, "mp5sim: run stalled after %d cycles (%d of %d packets completed)\n",
			res.Cycles, res.Completed, res.Injected)
		fmt.Fprintf(stderr, "  drops: data=%d insert=%d ingress=%d starved=%d phantom=%d (in flight: %d)\n",
			res.DroppedData, res.DroppedInsert, res.DroppedIngress, res.DroppedStarved,
			res.DroppedPhantom, res.Injected-res.Completed-res.PacketDrops())
		return 3
	}
	if !*verify {
		return 0
	}
	if res.Completed != res.Injected {
		fmt.Fprintln(stdout, "equivalence        skipped (packet loss; see Sec 3.5.1)")
		return 0
	}
	rep := equiv.Run(prog, trace).Verify(sim.FinalRegs(), sim.Outputs(), sim.AccessOrders())
	return printVerdict(stdout, rep, "all registers, C1 order")
}

// writeProm writes reg's Prometheus-text snapshot to path ("" writes
// nothing).
func writeProm(path string, reg *telemetry.Registry) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteProm(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printVerdict prints the equivalence line of a verdict — covered names what
// an OK compared beyond the packets — and returns the exit code.
func printVerdict(stdout io.Writer, rep *equiv.Report, covered string) int {
	if !rep.Equivalent {
		fmt.Fprintf(stdout, "equivalence        FAILED: %s\n", rep)
		return 1
	}
	fmt.Fprintf(stdout, "equivalence        OK (%d packets, %s)\n", rep.PacketsCompared, covered)
	return 0
}

// engineRun is a finished concurrent-engine run as mp5sim reports it,
// whichever engine produced it.
type engineRun struct {
	injected, completed int64
	reordered           int64
	stalled             bool
	elapsed             time.Duration
	pps                 float64
	latency             *stats.Histogram
	// title names the engine on the engine line; detail is the one
	// engine-specific summary line.
	title, detail string
	// eng reads back what the verdict compares.
	eng interface {
		FinalRegs() [][]int64
		Outputs() map[int64][]int64
		AccessOrders() map[string][]int64
	}
}

// runEngine executes the trace on a concurrent engine — the sharded
// dataplane or screp (state-compute replication) — instead of the
// cycle-accurate simulator and prints the analogous summary. Verify holds
// the run to the C1 verdict: state, outputs and per-slot access order
// against the single-pipeline reference. Returns the process exit code.
func runEngine(name string, prog *ir.Program, trace []core.Arrival, workers int, verify bool, metricsOut string, stdout, stderr io.Writer) int {
	var reg *telemetry.Registry
	if metricsOut != "" {
		reg = telemetry.NewRegistry()
	}
	var r engineRun
	if name == "screp" {
		cfg := screp.Config{Workers: workers, RecordOutputs: verify, RecordAccessOrder: verify, RecordEgressOrder: true}
		if reg != nil {
			cfg.Metrics = screp.NewMetrics(reg)
		}
		eng := screp.New(prog, cfg)
		res := eng.Run(trace)
		r = engineRun{
			injected: res.Injected, completed: res.Completed, reordered: res.Reordered, stalled: res.Stalled,
			elapsed: res.Elapsed, pps: res.PktsPerSec, latency: res.Latency,
			title: fmt.Sprintf("screp (state-compute replication), %d replicas", res.Workers),
			detail: fmt.Sprintf("replication        %d deltas published, %d writes replayed (%.2f per packet)",
				res.DeltasPublished, res.WritesReplayed, float64(res.WritesReplayed)/float64(max64(res.Injected, 1))),
			eng: eng,
		}
	} else {
		cfg := dataplane.Config{Workers: workers, RecordOutputs: verify, RecordAccessOrder: verify, RecordEgressOrder: true}
		if reg != nil {
			cfg.Metrics = dataplane.NewMetrics(reg)
		}
		eng := dataplane.New(prog, cfg)
		res := eng.Run(trace)
		r = engineRun{
			injected: res.Injected, completed: res.Completed, reordered: res.Reordered, stalled: res.Stalled,
			elapsed: res.Elapsed, pps: res.PktsPerSec, latency: res.Latency,
			title:  fmt.Sprintf("dataplane, %d workers", res.Workers),
			detail: fmt.Sprintf("crossbar           %d steers, %d parks, %d wasted visits", res.Steers, res.Parks, res.Wasted),
			eng:    eng,
		}
	}

	fmt.Fprintf(stdout, "program            %s (%d stages, %d resolution, %d registers)\n",
		prog.Name, prog.NumStages(), prog.ResolutionStages, len(prog.Regs))
	fmt.Fprintf(stdout, "engine             %s (GOMAXPROCS %d)\n", r.title, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "packets            %d injected, %d completed\n", r.injected, r.completed)
	fmt.Fprintf(stdout, "throughput         %.0f packets/sec (%.2f ms elapsed)\n",
		r.pps, float64(r.elapsed.Microseconds())/1000)
	fmt.Fprintln(stdout, r.detail)
	fmt.Fprintf(stdout, "reordered egress   %d packets\n", r.reordered)
	if r.latency != nil && r.latency.Total() > 0 {
		fmt.Fprintf(stdout, "latency            p50 %.0f µs, p99 %.0f µs\n",
			r.latency.Quantile(0.5), r.latency.Quantile(0.99))
	}
	if err := writeProm(metricsOut, reg); err != nil {
		fmt.Fprintln(stderr, "mp5sim:", err)
		return 1
	}
	switch equiv.Liveness(r.stalled, r.completed, r.injected) {
	case "stall":
		fmt.Fprintf(stderr, "mp5sim: %s stalled (%d of %d packets completed)\n",
			name, r.completed, r.injected)
		return 3
	case "loss":
		if verify {
			fmt.Fprintln(stdout, "equivalence        skipped (packet loss)")
		}
		return 0
	}
	if !verify {
		return 0
	}
	rep := equiv.Run(prog, trace).Verify(r.eng.FinalRegs(), r.eng.Outputs(), r.eng.AccessOrders())
	return printVerdict(stdout, rep, "all registers, C1 order")
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
