package main

import (
	"fmt"
	"sync"
	"time"

	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/server"
	"mp5/internal/stats"
	"mp5/internal/telemetry"
)

// tenantLoad is one tenant of a wire workload and the client that drives it.
type tenantLoad struct {
	name   string
	s      synth
	quota  int     // admission quota in packets, 0 = none
	window int     // client window
	rate   float64 // paced packets per second; 0 = closed loop, as fast as acks allow
	swap   bool    // hot-swapped during the region

	prog  *ir.Program
	trace []core.Arrival
}

// wire is a loopback-TCP workload: an in-process daemon and one client
// connection per tenant.
type wire struct {
	r       *run
	tenants []*tenantLoad
}

func (w *wire) open() bool { return w.tenants[0].rate > 0 }

func (w *wire) compile() (err error) {
	for _, t := range w.tenants {
		if t.prog, err = w.r.compile(t.s); err != nil {
			return err
		}
	}
	return nil
}

func (w *wire) prepare() error {
	r := w.r
	if err := w.compile(); err != nil {
		return err
	}
	for i, t := range w.tenants {
		t.trace = r.generate(t.prog, t.s, r.opt.seed+int64(1000*i), r.opt.sizes.trace)
	}
	r.predict(w.tenants[0].prog, w.tenants[0].s)
	return w.verify()
}

// newServer builds and starts the daemon for the workload's tenants, as
// one span.
func (w *wire) newServer(cfg server.Config) (*server.Server, error) {
	id := w.r.rec.begin("server.start")
	defer w.r.rec.end(id)
	cfg.Engine.Workers = w.r.workers
	cfg.Engine.Window = w.r.opt.sizes.window
	cfg.TCPAddr = "127.0.0.1:0"
	tps := make([]server.TenantProgram, len(w.tenants))
	for i, t := range w.tenants {
		tps[i] = server.TenantProgram{Name: t.name, Prog: t.prog, Quota: t.quota}
	}
	s, err := server.NewMulti(tps, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// verify pushes the verification packets through a recording daemon — every
// tenant at once, a hot swap halfway through a swapped tenant's share — and
// holds each program version to its own single-pipeline reference.
func (w *wire) verify() error {
	r := w.r
	id := r.rec.begin("equiv.verify")
	defer r.rec.end(id)
	s, err := w.newServer(server.Config{Verify: true})
	if err != nil {
		return err
	}
	defer s.Shutdown()
	share := r.opt.sizes.verify / len(w.tenants)
	err = w.eachTenant(func(i int, t *tenantLoad) error {
		var cs clientStats
		if !t.swap {
			return session(s, i, t, t.trace[:share], 0, &cs)
		}
		if err := session(s, i, t, t.trace[:share/2], 0, &cs); err != nil {
			return err
		}
		if _, err := s.Tenants().Swap(t.name, t.prog); err != nil {
			return err
		}
		return session(s, i, t, t.trace[share/2:share], 0, &cs)
	})
	if err != nil {
		return fmt.Errorf("verification pass: %w", err)
	}
	if res := s.Shutdown(); res.Stalled {
		return fmt.Errorf("verification pass: engine stalled")
	}
	tvs, err := s.VerifyTenants()
	if err != nil {
		return err
	}
	checked := 0
	for _, tv := range tvs {
		checked += tv.Packets
		if !tv.Report.Equivalent {
			r.noteVerify(fmt.Errorf("tenant %s v%d: %s", tv.Tenant, tv.Version, tv.Report))
		}
		if !tv.OrderOK {
			r.noteVerify(fmt.Errorf("tenant %s v%d: C1 access order differs from the single-pipeline reference", tv.Tenant, tv.Version))
		}
	}
	if want := share * len(w.tenants); checked != want {
		r.noteVerify(fmt.Errorf("verified %d packets, sent %d", checked, want))
	}
	return nil
}

// clientStats accumulates one tenant's client sessions.
type clientStats struct {
	sent, acked int64
	lat         *stats.Histogram // send→ack RTT, µs
}

// session pushes arrs through a fresh connection (a Client runs once) and
// folds the report into cs.
func session(s *server.Server, id int, t *tenantLoad, arrs []core.Arrival, rate float64, cs *clientStats) error {
	c, err := server.Dial("tcp", s.TCPAddr())
	if err != nil {
		return err
	}
	defer c.Close()
	rep, err := c.Run(arrs, server.LoadOptions{Tenant: uint16(id), Window: t.window, RatePPS: rate})
	cs.sent += int64(len(arrs))
	cs.acked += rep.Acked
	cs.merge(rep.Latency)
	return err
}

func (cs *clientStats) merge(lat *stats.Histogram) {
	if cs.lat == nil {
		cs.lat = lat
	} else {
		cs.lat.Merge(lat)
	}
}

func (w *wire) construct() error {
	s, err := w.newServer(server.Config{})
	if err != nil {
		return err
	}
	return (&wireSys{w: w, srv: s}).close()
}

func (w *wire) layers(d time.Duration) error {
	return ladder(w.r, w.tenants[0].prog, w.tenants[0].trace, d, true, true)
}

func (w *wire) start(traced bool) (system, error) {
	r := w.r
	sys := &wireSys{w: w}
	var cfg server.Config
	if traced {
		cfg.Registry = telemetry.NewRegistry()
		sys.trc = dataplane.NewTracer(dataplane.TracerConfig{SampleEvery: traceSampleEvery, Registry: cfg.Registry})
		cfg.Tracer = sys.trc
		cfg.AdminAddr = "127.0.0.1:0"
	}
	s, err := w.newServer(cfg)
	if err != nil {
		return nil, err
	}
	sys.srv = s

	id := r.rec.begin("warmup")
	defer r.rec.end(id)
	share := r.opt.sizes.warm / len(w.tenants)
	warm := make([]clientStats, len(w.tenants))
	err = w.eachTenant(func(i int, t *tenantLoad) error {
		return session(s, i, t, t.trace[:min(share, len(t.trace))], 0, &warm[i])
	})
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return sys, nil
}

// wireSys is a started daemon.
type wireSys struct {
	w    *wire
	srv  *server.Server
	trc  *dataplane.Tracer // nil unless traced
	w0   []dataplane.WorkerStat
	wall time.Duration
}

// eachTenant runs f once per tenant, concurrently, and returns the first error.
func (w *wire) eachTenant(f func(i int, t *tenantLoad) error) error {
	errs := make([]error, len(w.tenants))
	var wg sync.WaitGroup
	for i, t := range w.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, t)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *wireSys) measure(d time.Duration, smp *sampler) (*region, error) {
	r := s.w.r
	if smp != nil {
		admin := s.srv.AdminAddr()
		smp.start(func() (server.StatsSnapshot, error) { return fetchStats(admin) })
		freshSpans(s.trc)
	}
	s.w0 = s.srv.Engine().WorkerStats()
	parent := r.rec.current()
	cs := make([]clientStats, len(s.w.tenants))
	start := time.Now()

	// The admin plane writes beside the data plane: swap the marked tenants'
	// programs four times over the region (every 5 s of a 20 s region).
	swapDone := make(chan struct{})
	var swapMs []float64
	var swapErr error
	stopSwap := make(chan struct{})
	go func() {
		defer close(swapDone)
		tick := time.NewTicker(d / 4)
		defer tick.Stop()
		for {
			select {
			case <-stopSwap:
				return
			case <-tick.C:
			}
			for _, t := range s.w.tenants {
				if !t.swap {
					continue
				}
				t0 := time.Now()
				if _, err := s.srv.Tenants().Swap(t.name, t.prog); err != nil {
					swapErr = err
					return
				}
				swapMs = append(swapMs, float64(time.Since(t0).Microseconds())/1e3)
			}
		}
	}()

	// Back-to-back sessions on fresh connections, a whole trace each: until
	// the deadline in a closed loop, rate·d packets in an open one.
	err := s.w.eachTenant(func(i int, t *tenantLoad) error {
		deadline := start.Add(d)
		paced := int(t.rate * d.Seconds())
		for {
			n := len(t.trace)
			if t.rate > 0 {
				n = min(n, paced)
				paced -= n
			} else if !time.Now().Before(deadline) {
				n = 0
			}
			if n == 0 {
				return nil
			}
			id := r.rec.beginUnder(parent, "server.session")
			err := session(s.srv, i, t, t.trace[:n], t.rate, &cs[i])
			r.rec.end(id)
			if err != nil {
				return err
			}
		}
	})
	s.wall = time.Since(start)
	close(stopSwap)
	<-swapDone
	if smp != nil {
		smp.stop()
	}
	if err == nil {
		err = swapErr
	}
	if err != nil {
		return nil, err
	}

	g := &region{wall: s.wall}
	var all clientStats // every tenant's sessions together
	for i := range cs {
		g.attempted += cs[i].sent
		g.completed += cs[i].acked
		all.merge(cs[i].lat)
	}
	g.latP50 = all.lat.Quantile(0.5)
	if smp != nil {
		if err := s.serverLayer(g, cs, all.lat, swapMs); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// serverLayer derives the server and tenant layers' metrics after a traced
// region, from the clients' view and the daemon's final /stats.
func (s *wireSys) serverLayer(g *region, cs []clientStats, lat *stats.Histogram, swapMs []float64) error {
	m := s.w.r.layer
	snap, err := fetchStats(s.srv.AdminAddr())
	if err != nil {
		return err
	}
	spanLayer(m, s.trc)
	m["trace.coverage_frac"] = m["dataplane.span_total_us"] / g.latP50
	m["server.lat_p99_us"] = lat.Quantile(0.99)
	m["server.lat_p999_us"] = lat.Quantile(0.999)
	m["server.ingress_dropped"] = float64(snap.IngressDropped)
	m["server.decode_errors"] = float64(snap.DecodeErrors)
	m["server.achieved_over_offered"] = float64(g.completed) / float64(g.attempted)
	if !s.w.open() {
		return nil
	}
	offered := 0.0
	for i, t := range s.w.tenants {
		offered += t.rate
		m["tenant."+t.name+"_pps"] = float64(cs[i].acked) / g.wall.Seconds()
		m["tenant."+t.name+"_lat_p50_us"] = cs[i].lat.Quantile(0.5)
	}
	for _, ts := range snap.Tenants {
		m["tenant.quota_shed"] += float64(ts.QuotaShed)
		m["tenant.versions_retained"] += float64(len(ts.Versions))
	}
	m["server.achieved_over_offered"] = g.pps() / offered
	m["tenant.swap_ms"] = median(swapMs)
	return nil
}

func (s *wireSys) close() error {
	r := s.w.r
	id := r.rec.begin("server.shutdown")
	res := s.srv.Shutdown()
	r.rec.end(id)
	s.trc.Close()
	if res.Stalled {
		return fmt.Errorf("engine stalled")
	}
	if s.trc != nil && s.w0 != nil { // a traced region ran
		dataplaneLayer(r.layer, res, s.w0, s.srv.Engine().WorkerStats(), s.wall)
	}
	return nil
}
