package main

import (
	"fmt"
	"reflect"
	"time"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
	"mp5/internal/workload"
)

// sizes fixes how much work a run does. The defaults are the benchmark; the
// smoke test shrinks them.
type sizes struct {
	trace       int // packets in an engine or wire workload's trace, cycled for the whole region
	simTrace    int // packets in sim-skewed's trace, which every simulator run takes whole
	verify      int // packets of the verification pass
	warm        int // warm-up packets through the system the region then uses
	predictSubs int // independent sub-traces the simulator prediction averages
	predictPkts int // packets per sub-trace
	setupReps   int // complete set-ups per run; setup_s is their median
	chunk       int // packets per SubmitBatch call, as Engine.Run and the daemon do
	window      int // admission window and closed-loop client window
}

var fullSizes = sizes{
	trace:       262144,
	simTrace:    65536,
	verify:      65536,
	warm:        131072,
	predictSubs: 16,
	predictPkts: 8192,
	setupReps:   3,
	chunk:       256,
	window:      256,
}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	sizes    sizes
	// corrupt flips one recorded output before the verification pass checks
	// it; only the smoke test sets it, to see the run fail.
	corrupt bool
}

// run is the state shared by a workload's phases.
type run struct {
	opt options
	rec *recorder
	// workers is k, the engine worker count: min(2, nproc).
	workers int
	// tracePkts is the length of the last trace generate drew.
	tracePkts int
	// simThroughput is the simulator's prediction, set by predict.
	simThroughput float64
	// verifyErr is the last verification failure (nil = outputs correct).
	verifyErr error
	// layer collects per-layer metrics by name.
	layer map[string]float64
}

// workloadImpl is one benchmark workload. A complete set-up is prepare then
// start; the run repeats it and measures on the last system started.
type workloadImpl interface {
	// compile builds the workload's programs.
	compile() error
	// prepare does the deterministic CPU work: compile, generate the trace,
	// predict with the simulator and verify outputs against the reference.
	prepare() error
	// construct builds and starts a bare system and tears it down again,
	// one span each; a traced run repeats it.
	construct() error
	// start constructs the system, starts it and warms it up. A traced
	// system carries a dataplane.Tracer and an admin listener.
	start(traced bool) (system, error)
	// layers runs the workload's ladder rungs and side measurements
	// (traced runs only), each rung for about d.
	layers(d time.Duration) error
}

// system is a started, warmed-up instance ready for the timed region.
type system interface {
	measure(d time.Duration, smp *sampler) (*region, error)
	close() error
}

// region is what one timed region produced.
type region struct {
	attempted int64
	completed int64
	wall      time.Duration
	latP50    float64 // the workload's lat_p50_us
}

func (g *region) pps() float64 { return float64(g.completed) / g.wall.Seconds() }

// synth is a synthetic program and how to draw traces for it.
type synth struct {
	stages, regSize int
	pattern         workload.Pattern
	// churn re-draws the hot set every that many cycles (skewed only), so
	// one trace averages over many hot sets and a metric depends little on
	// which seed drew them.
	churn int64
}

func (s synth) spec(packets int, seed int64) workload.Spec {
	return workload.Spec{Packets: packets, Pipelines: simPipelines, Seed: seed, Pattern: s.pattern, ChurnInterval: s.churn}
}

// simPipelines is k of the simulated switch (the paper's default); the
// traces offer its line rate.
const simPipelines = 4

// compile builds the Domino source of s into IR and bytecode, one span each.
func (r *run) compile(s synth) (*ir.Program, error) {
	id := r.rec.begin("compiler.compile")
	prog, err := compiler.Compile(apps.SyntheticSource(s.stages, s.regSize),
		compiler.Options{Target: compiler.TargetMP5, MaxStages: 16})
	r.rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("compile %dx%d: %w", s.stages, s.regSize, err)
	}
	id = r.rec.begin("bytecode.compile")
	_, err = bytecode.Compile(prog)
	r.rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("bytecode compile %dx%d: %w", s.stages, s.regSize, err)
	}
	return prog, nil
}

// generate draws a workload's trace of n packets.
func (r *run) generate(prog *ir.Program, s synth, seed int64, n int) []core.Arrival {
	id := r.rec.begin("workload.gen")
	defer r.rec.end(id)
	r.tracePkts = n
	return workload.Synthetic(prog, s.spec(n, seed), s.stages, s.regSize)
}

// subTrace draws the i-th short independent trace the prediction runs on.
// The stride keeps the per-stage sampler seeds (seed+stage+1) of different
// sub-traces apart.
func (r *run) subTrace(prog *ir.Program, s synth, i int) []core.Arrival {
	seed := r.opt.seed*100003 + 101*int64(i+1)
	return workload.Synthetic(prog, s.spec(r.opt.sizes.predictPkts, seed), s.stages, s.regSize)
}

// predict is the model's number beside the machine's: the mean ArchMP5 k=4
// throughput over short independent traces of the workload's own kind. One
// long trace would make the figure hinge on a single hot-set draw.
func (r *run) predict(prog *ir.Program, s synth) {
	id := r.rec.begin("core.predict")
	defer r.rec.end(id)
	sum := 0.0
	for i := 0; i < r.opt.sizes.predictSubs; i++ {
		res := core.NewSimulator(prog, core.Config{Arch: core.ArchMP5, Pipelines: simPipelines, Seed: 1}).Run(r.subTrace(prog, s, i))
		sum += res.Throughput
	}
	r.simThroughput = sum / float64(r.opt.sizes.predictSubs)
}

// checkRecorded holds one recorded execution to the single-pipeline
// reference: final registers, per-packet outputs and per-slot C1 order.
func (r *run) checkRecorded(prog *ir.Program, regs [][]int64, outs map[int64][]int64, orders map[string][]int64, trace []core.Arrival) error {
	if r.opt.corrupt {
		outs[0][0]++
	}
	id := r.rec.begin("equiv.check_state")
	rep := equiv.CheckState(prog, regs, outs, trace)
	r.rec.end(id)
	if !rep.Equivalent {
		return fmt.Errorf("state or output mismatch: %s", rep)
	}
	id = r.rec.begin("equiv.reference_order")
	ref := equiv.ReferenceOrder(prog, trace)
	r.rec.end(id)
	if !reflect.DeepEqual(ref, orders) {
		return fmt.Errorf("C1 access order differs from the single-pipeline reference")
	}
	return nil
}

// noteVerify records a verification verdict; any failure marks the run
// incorrect.
func (r *run) noteVerify(err error) {
	if err != nil {
		r.verifyErr = err
	}
}
