package main

import "time"

// cheapRepeats is how often a traced run repeats the sub-millisecond set-up
// steps (compile, construct), so their medians are steady enough to show
// work moved into them.
const cheapRepeats = 20

// tracedRun produces the per-layer metrics: the set-up spans, an untraced
// region on sys as the base of the tracing overhead, a traced region on a
// fresh system with the sampler and the process counters around it, and the
// workload's ladder. It returns the traced region.
func tracedRun(r *run, w workloadImpl, sys system, dur time.Duration) (*region, error) {
	m := r.layer
	id := r.rec.begin("repeats")
	for i := 0; i < cheapRepeats; i++ {
		if err := w.compile(); err != nil {
			return nil, err
		}
		if err := w.construct(); err != nil {
			return nil, err
		}
	}
	r.rec.end(id)
	ms := func(name string) float64 { return float64(r.rec.median(name).Nanoseconds()) / 1e6 }
	m["compiler.compile_ms"] = ms("compiler.compile")
	m["bytecode.compile_ms"] = ms("bytecode.compile")
	m["workload.gen_ns_per_pkt"] = ms("workload.gen") * 1e6 / float64(r.tracePkts)
	m["core.predict_ms"] = ms("core.predict")
	m["equiv.verify_ms"] = ms("equiv.verify")
	m["dataplane.start_us"] = ms("dataplane.start") * 1e3
	m["server.start_ms"] = ms("server.start")
	m["server.shutdown_ms"] = ms("server.shutdown")
	m["warmup_ms"] = ms("warmup")

	share := time.Duration(float64(dur) * tracedRegionShare)
	id = r.rec.begin("region.untraced")
	base, err := sys.measure(share, nil)
	r.rec.end(id)
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	tsys, err := w.start(true)
	if err != nil {
		return nil, err
	}
	calib := calibrate()
	before := readProc()
	smp := &sampler{}
	id = r.rec.begin("region.traced")
	g, err := tsys.measure(share, smp)
	r.rec.end(id)
	after := readProc()
	calib = (calib + calibrate()) / 2
	if cerr := tsys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	smp.fold(m)
	_, overWire := w.(*wire)
	procLayer(m, before, after, g.completed, overWire)
	m["proc.calib_ns_per_iter"] = calib
	if m["dataplane.span_total_us"] > 0 { // a tracer ran
		m["trace.overhead_frac"] = 1 - g.pps()/base.pps()
	}
	return g, w.layers(time.Duration(float64(dur) * rungShare))
}
