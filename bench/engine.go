package main

import (
	"fmt"
	"time"

	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/server"
	"mp5/internal/telemetry"
)

// traceSampleEvery is the traced runs' span sampling rate: 1 packet in 64.
const traceSampleEvery = 64

// engineScatter is the contention workload: the in-process sharded engine on
// eight 8-entry arrays, closed loop through the admission window.
type engineScatter struct {
	r     *run
	s     synth
	prog  *ir.Program
	trace []core.Arrival
}

func (w *engineScatter) compile() (err error) {
	w.prog, err = w.r.compile(w.s)
	return err
}

func (w *engineScatter) prepare() error {
	r := w.r
	if err := w.compile(); err != nil {
		return err
	}
	prog := w.prog
	w.trace = r.generate(prog, w.s, r.opt.seed, r.opt.sizes.trace)
	r.predict(prog, w.s)

	id := r.rec.begin("equiv.verify")
	defer r.rec.end(id)
	ver := w.trace[:r.opt.sizes.verify]
	eng := dataplane.New(prog, dataplane.Config{
		Workers: r.workers, Window: r.opt.sizes.window,
		RecordOutputs: true, RecordAccessOrder: true,
	})
	eng.Start()
	_, err := feed(eng, ver, len(ver), r.opt.sizes.chunk)
	res := eng.Drain()
	if err != nil || res.Completed != int64(len(ver)) {
		return fmt.Errorf("verification pass: %d of %d packets completed (stalled=%v)", res.Completed, len(ver), res.Stalled)
	}
	r.noteVerify(r.checkRecorded(prog, eng.FinalRegs(), eng.Outputs(), eng.AccessOrders(), ver))
	return nil
}

// newEngine constructs and starts the engine, as one span.
func (w *engineScatter) newEngine(trc *dataplane.Tracer) *dataplane.Engine {
	id := w.r.rec.begin("dataplane.start")
	defer w.r.rec.end(id)
	eng := dataplane.New(w.prog, dataplane.Config{Workers: w.r.workers, Window: w.r.opt.sizes.window, Tracer: trc})
	eng.Start()
	return eng
}

func (w *engineScatter) construct() error {
	w.newEngine(nil).Drain()
	return nil
}

func (w *engineScatter) start(traced bool) (system, error) {
	r := w.r
	sys := &engineSys{w: w}
	if traced {
		sys.trc = dataplane.NewTracer(dataplane.TracerConfig{SampleEvery: traceSampleEvery, Registry: telemetry.NewRegistry()})
	}
	sys.eng = w.newEngine(sys.trc)

	id := r.rec.begin("warmup")
	defer r.rec.end(id)
	if _, err := feed(sys.eng, w.trace, r.opt.sizes.warm, r.opt.sizes.chunk); err != nil {
		sys.close()
		return nil, err
	}
	for sys.eng.InFlight() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
	return sys, nil
}

// feed submits n packets through feedUntil.
func feed(eng *dataplane.Engine, trace []core.Arrival, n, chunk int) (int64, error) {
	return feedUntil(eng, trace, chunk, nil, func(offered int64) bool { return offered >= int64(n) })
}

// feedUntil submits packets, cycling over trace in chunks as Engine.Run
// does, until done says so, and returns how many it offered. sample, when
// set, stamps spans.

func feedUntil(eng *dataplane.Engine, trace []core.Arrival, chunk int, sample *dataplane.Tracer, done func(offered int64) bool) (int64, error) {
	var spans []*dataplane.Span // stays nil, so untraced, without a sampler
	var offered int64
	for off := 0; !done(offered); {
		end := min(off+chunk, len(trace))
		batch := trace[off:end]
		if sample != nil {
			spans = spans[:0]
			for range batch {
				spans = append(spans, sample.Sample())
			}
		}
		if got := eng.SubmitBatch(batch, spans); got != len(batch) {
			return offered + int64(got), fmt.Errorf("engine refused packets after %d (stalled=%v)", offered+int64(got), eng.Stalled())
		}
		offered += int64(len(batch))
		if off = end; off == len(trace) {
			off = 0
		}
	}
	return offered, nil
}

// engineSys is a started, warmed-up engine. measure drains it (the latency
// histogram exists only then), so it runs once.
type engineSys struct {
	w       *engineScatter
	eng     *dataplane.Engine
	trc     *dataplane.Tracer
	drained bool
}

func (s *engineSys) measure(d time.Duration, smp *sampler) (*region, error) {
	r := s.w.r
	eng := s.eng
	if smp != nil {
		smp.start(func() (server.StatsSnapshot, error) { return engineSnapshot(eng), nil })
		freshSpans(s.trc)
	}
	c0 := eng.Completed()
	w0 := eng.WorkerStats()
	start := time.Now()
	deadline := start.Add(d)
	offered, err := feedUntil(eng, s.w.trace, r.opt.sizes.chunk, s.trc, func(int64) bool { return !time.Now().Before(deadline) })
	if smp != nil {
		smp.stop()
	}
	res := eng.Drain()
	wall := time.Since(start)
	s.drained = true
	if err != nil {
		return nil, err
	}
	if smp != nil {
		s.trc.Close()
		dataplaneLayer(r.layer, res, w0, eng.WorkerStats(), wall)
		spanLayer(r.layer, s.trc)
	}
	// The histogram covers the engine's life; the warm-up's share of it is
	// under a hundredth of a 20 s region's.
	return &region{
		attempted: offered,
		completed: res.Completed - c0,
		wall:      wall,
		latP50:    res.Latency.Quantile(0.5),
	}, nil
}

func (s *engineSys) close() error {
	if !s.drained {
		s.eng.Drain()
		s.drained = true
	}
	s.trc.Close()
	return nil
}

// engineSnapshot fills the part of the daemon's /stats view a bare engine
// has, so one sampler serves the in-process and the wire workloads.
func engineSnapshot(eng *dataplane.Engine) server.StatsSnapshot {
	snap := server.StatsSnapshot{
		Window:      server.QueueStat{Depth: eng.WindowInUse(), Cap: eng.WindowCap()},
		WorkerStats: eng.WorkerStats(),
	}
	snap.TicketsPending, snap.TicketsMax = eng.TicketDepths()
	return snap
}

// dataplaneLayer derives the dataplane layer's counts and waits. The
// per-packet ratios are over the engine's whole life (warm-up included: the
// same program and trace).
func dataplaneLayer(m map[string]float64, res *dataplane.Result, w0, w1 []dataplane.WorkerStat, wall time.Duration) {
	n := float64(res.Completed)
	m["dataplane.steers_per_pkt"] = float64(res.Steers) / n
	m["dataplane.parks_per_pkt"] = float64(res.Parks) / n
	m["dataplane.wasted_per_pkt"] = float64(res.Wasted) / n
	m["dataplane.shard_moves_per_kpkt"] = 1000 * float64(res.ShardMoves) / n
	m["dataplane.lat_p99_us"] = res.Latency.Quantile(0.99)

	var busy, total, lo, hi float64
	for i := range w1 {
		busy += float64(w1[i].BusyNs - w0[i].BusyNs)
		done := float64(w1[i].Processed - w0[i].Processed)
		total += done
		if i == 0 || done < lo {
			lo = done
		}
		if done > hi {
			hi = done
		}
	}
	m["dataplane.worker_busy_frac"] = busy / (float64(len(w1)) * float64(wall))
	if total > 0 {
		m["dataplane.worker_imbalance"] = (hi - lo) / (total / float64(len(w1)))
	}
}

// freshSpans empties both windows of the tracer's stage histograms, so the
// medians read after a region are the region's and not the warm-up's.
func freshSpans(trc *dataplane.Tracer) {
	trc.Rotate()
	trc.Rotate()
}

// spanLayer reads the tracer's per-stage medians.
func spanLayer(m map[string]float64, trc *dataplane.Tracer) {
	for _, st := range trc.StageStats() {
		m["dataplane.span_"+st.Stage+"_us"] = st.P50us
	}
	m["dataplane.spans_dropped"] = float64(trc.Dropped())
}

func (w *engineScatter) layers(d time.Duration) error {
	return ladder(w.r, w.prog, w.trace, d, true, false)
}
