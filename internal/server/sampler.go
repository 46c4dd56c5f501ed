package server

import (
	"strconv"
	"time"

	"mp5/internal/dataplane"
	"mp5/internal/telemetry"
)

// The live-introspection half of the admin plane: a handful of callback
// gauges that are always current (uptime, window in use, ingress depth —
// evaluated at scrape time, so /metrics is non-trivial even on an idle
// daemon), plus a background sampler that periodically snapshots the
// quantities worth history but too hot to compute per packet: per-worker
// mailbox occupancy and park counts, the aggregate D4 ticket backlog, and
// pps rates derived from counter deltas. The sampler also rotates the
// tracer's stage-histogram windows so /metrics quantiles track the recent
// past rather than the whole run.

// rotateTicks is how many sampler ticks between trace-histogram window
// rotations (40 × the 250ms default interval = 10s windows).
const rotateTicks = 40

// registerGauges wires the scrape-time gauges (r is never nil here:
// Config.withDefaults creates a private registry).
func (s *Server) registerGauges(r *telemetry.Registry) {
	r.NewGaugeFunc("server_uptime_seconds", "seconds since the daemon started serving", func() float64 {
		t0 := s.startNs.Load()
		if t0 == 0 {
			return 0
		}
		return float64(time.Now().UnixNano()-t0) / 1e9
	})
	r.NewGaugeFunc("dataplane_window_inuse", "admission-window tokens held (in-flight packets)", func() float64 {
		return float64(s.eng.WindowInUse())
	})
	r.NewGaugeFunc("server_ingress_queue_depth", "packets queued between the decoders and the serial admitter", func() float64 {
		return float64(s.ingress.packets())
	})
	s.mailboxG = r.NewGaugeVec("dataplane_mailbox_depth", "crossbar mailbox occupancy per worker", "worker")
	s.parkedG = r.NewGaugeVec("dataplane_parked_packets", "packets parked waiting for head tickets, per worker", "worker")
	s.ticketG = r.NewGaugeVec("dataplane_ticket_queue_depth", "issued-but-unretired D4 tickets (pending = sum over slots, max = deepest slot)", "agg")
	s.tenantSubG = r.NewGaugeVec("tenant_submitted_packets", "packets admitted per tenant, summed over its versions", "tenant")
	s.tenantDoneG = r.NewGaugeVec("tenant_completed_packets", "packets egressed per tenant, summed over its versions", "tenant")
	s.tenantShedG = r.NewGaugeVec("tenant_quota_shed_packets", "packets shed per tenant because its admission quota was exhausted", "tenant")
	s.tenantQG = r.NewGaugeVec("tenant_quota_inuse", "admission-quota tokens held per tenant (0 for unlimited tenants)", "tenant")
	s.rxPPS = r.NewGauge("server_rx_pps", "decoded frames per second over the last sampler interval")
	s.ackPPS = r.NewGauge("server_ack_pps", "egress acks per second over the last sampler interval")
	s.egPPS = r.NewGauge("dataplane_egress_pps", "packets egressed per second over the last sampler interval")
}

// samplerLoop is the background sampler goroutine (Start → Shutdown).
func (s *Server) samplerLoop() {
	defer s.samplerWg.Done()
	tick := time.NewTicker(s.cfg.SampleInterval)
	defer tick.Stop()
	var (
		lastT  = time.Now()
		lastRx = s.met.rx.Total()
		lastAk = s.met.acks.Value()
		lastEg = s.eng.Completed()
		ticks  = 0
	)
	for {
		select {
		case <-s.samplerStop:
			return
		case now := <-tick.C:
			dt := now.Sub(lastT).Seconds()
			if dt <= 0 {
				continue
			}
			rx, ak, eg := s.met.rx.Total(), s.met.acks.Value(), s.eng.Completed()
			s.rxPPS.Set(float64(rx-lastRx) / dt)
			s.ackPPS.Set(float64(ak-lastAk) / dt)
			s.egPPS.Set(float64(eg-lastEg) / dt)
			lastT, lastRx, lastAk, lastEg = now, rx, ak, eg

			for _, w := range s.eng.WorkerStats() {
				lbl := strconv.Itoa(w.ID)
				s.mailboxG.Set(float64(w.Mailbox), lbl)
				s.parkedG.Set(float64(w.Parked), lbl)
			}
			pending, maxDepth := s.eng.TicketDepths()
			s.ticketG.Set(float64(pending), "pending")
			s.ticketG.Set(float64(maxDepth), "max")

			for _, ts := range s.tenantStats() {
				s.tenantSubG.Set(float64(ts.Submitted), ts.Name)
				s.tenantDoneG.Set(float64(ts.Completed), ts.Name)
				s.tenantShedG.Set(float64(ts.QuotaShed), ts.Name)
				s.tenantQG.Set(float64(ts.QuotaInUse), ts.Name)
			}

			if ticks++; ticks%rotateTicks == 0 {
				s.trc.Rotate()
			}
		}
	}
}

// QueueStat is one bounded queue's live occupancy.
type QueueStat struct {
	Depth int `json:"depth"`
	Cap   int `json:"cap"`
}

// TenantStat is one tenant's live view in /stats and /programs: identity,
// quota occupancy, counters summed across versions, and the per-version
// handle stats (superseded versions stay listed while they drain and after
// — their final counters are part of the run's story).
type TenantStat struct {
	Name          string `json:"name"`
	ID            uint16 `json:"id"`
	ActiveVersion int    `json:"active_version"`
	ActiveProgram string `json:"active_program"`

	Submitted  int64 `json:"submitted"`
	Completed  int64 `json:"completed"`
	QuotaShed  int64 `json:"quota_shed"`
	QuotaCap   int64 `json:"quota_cap"` // 0 = unlimited
	QuotaInUse int64 `json:"quota_inuse"`

	Versions []dataplane.HandleStats `json:"versions"`
}

// tenantStats assembles the per-tenant section — every source is an atomic
// or a copy-on-write snapshot, safe at any point in the daemon's life.
func (s *Server) tenantStats() []TenantStat {
	tns := s.reg.Tenants()
	out := make([]TenantStat, 0, len(tns))
	for _, tn := range tns {
		av := tn.Active()
		ts := TenantStat{
			Name:          tn.Name(),
			ID:            tn.ID(),
			ActiveVersion: av.Seq,
			ActiveProgram: av.Prog.Name,
		}
		if q := tn.Quota(); q != nil {
			ts.QuotaCap = q.Cap()
			ts.QuotaInUse = q.InUse()
		}
		for _, v := range tn.Versions() {
			hs := v.Handle.Stats()
			ts.Submitted += hs.Submitted
			ts.Completed += hs.Completed
			ts.QuotaShed += hs.Shed
			ts.Versions = append(ts.Versions, hs)
		}
		out = append(out, ts)
	}
	return out
}

// StatsSnapshot is the /stats response: one JSON object holding every
// live-introspection quantity the daemon knows — counters, rates, queue
// depths, per-worker occupancy, and (when tracing is on) the sampled
// stage-latency quantiles. mp5top polls and renders it.
type StatsSnapshot struct {
	NowUnixNs int64   `json:"now_unix_ns"`
	UptimeSec float64 `json:"uptime_sec"`
	Status    string  `json:"status"`
	Program   string  `json:"program"`
	Workers   int     `json:"workers"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	InFlight  int64 `json:"in_flight"`

	RxTCP          int64 `json:"rx_tcp"`
	RxUDP          int64 `json:"rx_udp"`
	Acks           int64 `json:"acks"`
	IngressDropped int64 `json:"ingress_dropped"`
	DecodeErrors   int64 `json:"decode_errors"`
	SubmitAborts   int64 `json:"submit_aborts"`
	Conns          int64 `json:"conns"`

	Steers     int64 `json:"steers"`
	Parks      int64 `json:"parks"`
	Wasted     int64 `json:"wasted_visits"`
	ShardMoves int64 `json:"shard_moves"`

	RxPPS     float64 `json:"rx_pps"`
	AckPPS    float64 `json:"ack_pps"`
	EgressPPS float64 `json:"egress_pps"`

	Ingress        QueueStat `json:"ingress"`
	Window         QueueStat `json:"window"`
	TicketsPending int64     `json:"tickets_pending"`
	TicketsMax     int64     `json:"tickets_max"`

	WorkerStats []dataplane.WorkerStat `json:"worker_stats"`
	Stages      []dataplane.StageStat  `json:"stages"`
	Tenants     []TenantStat           `json:"tenants"`

	TraceSampled int64 `json:"trace_sampled"`
	TraceDropped int64 `json:"trace_dropped"`
}

// statsSnapshot assembles the /stats view. Every source is an atomic, a
// channel length, or a briefly-locked accessor — safe at any point in the
// daemon's life.
func (s *Server) statsSnapshot() StatsSnapshot {
	eng := s.eng
	snap := StatsSnapshot{
		NowUnixNs: time.Now().UnixNano(),
		Status:    "ok",
		Program:   s.prog.Name,
		Workers:   eng.Workers(),

		Submitted: eng.Submitted(),
		Completed: eng.Completed(),
		InFlight:  eng.InFlight(),

		RxTCP:          s.met.rx.Value("tcp"),
		RxUDP:          s.met.rx.Value("udp"),
		Acks:           s.met.acks.Value(),
		IngressDropped: s.met.dropped.Value(),
		DecodeErrors:   s.met.decodeErr.Value(),
		SubmitAborts:   s.met.submitFail.Value(),
		Conns:          s.met.conns.Value(),

		Steers:     s.engMet.Steers.Value(),
		Parks:      s.engMet.Parks.Value(),
		Wasted:     s.engMet.Wasted.Value(),
		ShardMoves: s.engMet.ShardMoves.Value(),

		RxPPS:     s.rxPPS.Value(),
		AckPPS:    s.ackPPS.Value(),
		EgressPPS: s.egPPS.Value(),

		Ingress: QueueStat{Depth: s.ingress.packets(), Cap: s.ingress.cap},
		Window:  QueueStat{Depth: eng.WindowInUse(), Cap: eng.WindowCap()},

		WorkerStats: eng.WorkerStats(),
		Stages:      s.trc.StageStats(),
		Tenants:     s.tenantStats(),

		TraceSampled: s.trc.Sampled(),
		TraceDropped: s.trc.Dropped(),
	}
	if t0 := s.startNs.Load(); t0 != 0 {
		snap.UptimeSec = float64(snap.NowUnixNs-t0) / 1e9
	}
	if eng.Stalled() {
		snap.Status = "stalled"
	}
	snap.TicketsPending, snap.TicketsMax = eng.TicketDepths()
	return snap
}
