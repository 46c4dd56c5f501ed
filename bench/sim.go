package main

import (
	"fmt"
	"time"

	"mp5/internal/core"
	"mp5/internal/ir"
	"mp5/internal/server"
	"mp5/internal/sharding"
)

// simSkewed is the simulator workload: fresh cycle-accurate ArchMP5 runs of
// one line-rate skewed trace, repeated for the whole region. No engine runs.
// The trace is 65,536 packets, a quarter of the other workloads': with
// 262,144 a run's working set is tens of megabytes of shared cache, and the
// host's slow phases cost this workload 37 % where they cost the engines 17 %
// (13 % both with the shorter trace).
type simSkewed struct {
	r     *run
	s     synth
	prog  *ir.Program
	trace []core.Arrival
}

func (w *simSkewed) config() core.Config {
	return core.Config{Arch: core.ArchMP5, Pipelines: simPipelines, Seed: 1}
}

func (w *simSkewed) compile() (err error) {
	w.prog, err = w.r.compile(w.s)
	return err
}

// construct is empty: the simulator is built fresh inside every timed run.
func (w *simSkewed) construct() error { return nil }

func (w *simSkewed) prepare() error {
	r := w.r
	if err := w.compile(); err != nil {
		return err
	}
	prog := w.prog
	w.trace = r.generate(prog, w.s, r.opt.seed, r.opt.sizes.simTrace)
	r.predict(prog, w.s)

	id := r.rec.begin("equiv.verify")
	defer r.rec.end(id)
	ver := w.trace[:min(r.opt.sizes.verify, len(w.trace))]
	cfg := w.config()
	cfg.RecordOutputs, cfg.RecordAccessOrder = true, true
	sim := core.NewSimulator(prog, cfg)
	res := sim.Run(ver)
	if res.Stalled || res.Completed != int64(len(ver)) {
		return fmt.Errorf("verification pass: %d of %d packets completed (stalled=%v)", res.Completed, len(ver), res.Stalled)
	}
	r.noteVerify(r.checkRecorded(prog, sim.FinalRegs(), sim.Outputs(), sim.AccessOrders(), ver))
	if res.C1Violating != 0 {
		r.noteVerify(fmt.Errorf("simulator counted %d C1-violating packets", res.C1Violating))
	}
	r.layer["core.c1_violating"] = float64(res.C1Violating)
	return nil
}

func (w *simSkewed) start(bool) (system, error) {
	id := w.r.rec.begin("warmup")
	defer w.r.rec.end(id)
	n := min(w.r.opt.sizes.warm, len(w.trace))
	core.NewSimulator(w.prog, w.config()).Run(w.trace[:n])
	return simSys{w}, nil
}

type simSys struct{ w *simSkewed }

func (s simSys) measure(d time.Duration, smp *sampler) (*region, error) {
	w := s.w
	g := &region{}
	// The simulator's caller waits for whole runs: lat_p50_us is the median
	// host time of a run, per 1,000 simulated packets.
	var perKpkt []float64
	var last *core.Result
	if smp != nil { // nothing to poll, but the sampler counts goroutines
		smp.start(func() (server.StatsSnapshot, error) { return server.StatsSnapshot{}, nil })
		defer smp.stop()
	}
	start := time.Now()
	for time.Since(start) < d {
		id := w.r.rec.begin("core.run")
		last = core.NewSimulator(w.prog, w.config()).Run(w.trace)
		el := w.r.rec.end(id)
		g.attempted += last.Injected
		g.completed += last.Completed
		perKpkt = append(perKpkt, float64(el.Microseconds())/(float64(len(w.trace))/1000))
	}
	g.wall = time.Since(start)
	g.latP50 = median(perKpkt)
	if smp != nil {
		m := w.r.layer
		m["core.host_ns_per_pkt"] = float64(g.wall.Nanoseconds()) / float64(g.completed)
		m["core.host_ns_per_cycle"] = float64(g.wall.Nanoseconds()) / float64(len(perKpkt)) / float64(last.Cycles)
		m["core.cycles"] = float64(last.Cycles)
		m["core.mean_latency_cycles"] = last.MeanLatency
		m["core.p99_latency_cycles"] = float64(last.P99Latency)
		m["core.max_fifo_depth"] = float64(last.MaxFIFODepth)
		m["core.shard_moves"] = float64(last.ShardMoves)
		m["core.wasted_visits"] = float64(last.WastedVisits)
	}
	return g, nil
}

func (simSys) close() error { return nil }

// layers adds the simulator's side measurements: the other architectures on
// the first prediction sub-trace, the full-sweep scheduler, and the remap
// heuristic alone.
func (w *simSkewed) layers(d time.Duration) error {
	r := w.r
	m := r.layer
	sub := r.subTrace(w.prog, w.s, 0)
	for arch, name := range map[core.Arch]string{core.ArchIdeal: "core.ideal_throughput", core.ArchRecirc: "core.recirc_throughput"} {
		cfg := w.config()
		cfg.Arch = arch
		m[name] = core.NewSimulator(w.prog, cfg).Run(sub).Throughput
	}

	id := r.rec.begin("core.fullsweep")
	sim := core.NewSimulator(w.prog, w.config())
	sim.SetFullSweep(true)
	res := sim.Run(sub)
	m["core.fullsweep_ns_per_pkt"] = float64(r.rec.end(id).Nanoseconds()) / float64(res.Completed)

	// The Figure-6 remap over the access counts of 100 cycles' packets (the
	// simulator's remap interval), timed alone.
	id = r.rec.begin("sharding.remap")
	defer r.rec.end(id)
	shard := sharding.New(w.prog, simPipelines, sharding.PolicyRoundRobin, 1)
	regOf, fieldOf := make([]int, w.s.stages), make([]int, w.s.stages)
	for i := range regOf {
		regOf[i] = w.prog.RegIndex(fmt.Sprintf("reg%d", i))
		fieldOf[i] = w.prog.FieldIndex(fmt.Sprintf("h%d", i))
	}
	per := simPipelines * core.DefaultRemapInterval
	var us []float64
	for off := 0; off+per <= len(w.trace) && len(us) < 200; off += per {
		for _, a := range w.trace[off : off+per] {
			for i, reg := range regOf {
				idx := int(a.Fields[fieldOf[i]])
				shard.NoteResolved(reg, idx)
				shard.NoteDone(reg, idx)
			}
		}
		t0 := time.Now()
		shard.Remap()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["sharding.remap_us"] = median(us)
	return ladder(r, w.prog, w.trace, d, false, false)
}
