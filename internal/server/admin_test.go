package server

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mp5/internal/dataplane"
	"mp5/internal/telemetry"
)

// TestAdminObservability exercises the introspection surface end to end
// against a live daemon: /metrics serves the Prometheus content type with
// HELP/TYPE lines for the new gauges, /stats decodes into a sane
// StatsSnapshot, unknown paths 404, and the pprof surface is mounted.
func TestAdminObservability(t *testing.T) {
	prog, trace := soakProgram(t)
	reg := telemetry.NewRegistry()
	trc := dataplane.NewTracer(dataplane.TracerConfig{SampleEvery: 4, Registry: reg})
	defer trc.Close()
	s, err := New(prog, Config{
		Engine:         dataplane.Config{Workers: 2, Window: 64},
		TCPAddr:        "127.0.0.1:0",
		AdminAddr:      "127.0.0.1:0",
		Registry:       reg,
		Tracer:         trc,
		SampleInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(trace[:800], LoadOptions{Window: 32}); err != nil {
		t.Fatal(err)
	}
	// Let the background sampler take at least one tick so the pps gauges
	// and occupancy vecs exist with values.
	time.Sleep(30 * time.Millisecond)
	base := "http://" + s.AdminAddr()

	// /metrics: content type and the satellite gauges, with HELP/TYPE.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("/metrics content type %q", ct)
	}
	metrics := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		"# HELP server_uptime_seconds ",
		"# TYPE server_uptime_seconds gauge",
		"# HELP dataplane_window_inuse ",
		"# TYPE dataplane_window_inuse gauge",
		"server_ingress_queue_depth",
		`dataplane_mailbox_depth{worker="0"}`,
		`dataplane_ticket_queue_depth{agg="pending"}`,
		"server_rx_pps",
		"trace_spans_sampled_total",
		"# TYPE trace_total_us summary",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /stats: a full snapshot that reconciles with the traffic just sent.
	var st StatsSnapshot
	getJSON(t, base+"/stats", &st)
	if st.Status != "ok" || st.Workers != 2 || st.Program == "" {
		t.Fatalf("/stats header fields: %+v", st)
	}
	if st.UptimeSec <= 0 || st.NowUnixNs == 0 {
		t.Fatalf("/stats clock fields: uptime %f now %d", st.UptimeSec, st.NowUnixNs)
	}
	if st.Submitted != 800 || st.Completed != 800 || st.InFlight != 0 {
		t.Fatalf("/stats engine counters after 800 acked: %+v", st)
	}
	if st.RxTCP != 800 || st.Acks != 800 {
		t.Fatalf("/stats server counters: rx_tcp %d acks %d", st.RxTCP, st.Acks)
	}
	if st.Ingress.Cap != 1024 || st.Window.Cap != 64 || st.Window.Depth != 0 {
		t.Fatalf("/stats queues: %+v %+v", st.Ingress, st.Window)
	}
	if len(st.WorkerStats) != 2 {
		t.Fatalf("/stats worker detail: %d entries", len(st.WorkerStats))
	}
	if st.TraceSampled != 800/4 {
		t.Fatalf("/stats trace_sampled %d (want %d)", st.TraceSampled, 800/4)
	}
	if len(st.Stages) == 0 || st.Stages[len(st.Stages)-1].Stage != "total" {
		t.Fatalf("/stats stages: %+v", st.Stages)
	}

	// Unknown paths 404 (the mux has no catch-all handler).
	resp, err = http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: %d", resp.StatusCode)
	}

	// pprof: the index and a goroutine dump answer 200 on the admin mux.
	idx := httpGet(t, base+"/debug/pprof/")
	if !strings.Contains(idx, "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
	dump := httpGet(t, base+"/debug/pprof/goroutine?debug=1")
	if !strings.Contains(dump, "goroutine profile") {
		t.Fatal("goroutine profile empty")
	}
}

// TestHealthzReportsAcksAndErrors pins the extended health body: acks and
// decode_errors ride along with the liveness fields.
func TestHealthzReportsAcksAndErrors(t *testing.T) {
	prog, trace := soakProgram(t)
	s, err := New(prog, Config{
		Engine:    dataplane.Config{Workers: 2},
		TCPAddr:   "127.0.0.1:0",
		AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(trace[:300], LoadOptions{Window: 16}); err != nil {
		t.Fatal(err)
	}
	var h healthz
	getJSON(t, "http://"+s.AdminAddr()+"/healthz", &h)
	if h.Acks != 300 {
		t.Fatalf("healthz acks %d after 300 acked packets", h.Acks)
	}
	if h.DecodeErrors != 0 {
		t.Fatalf("healthz decode_errors %d on clean traffic", h.DecodeErrors)
	}
}

// TestTracedSoakTCP is the tracing acceptance soak: a traced daemon serves
// the full loopback TCP workload, and the sampled spans must reconcile —
// sink count against the sampling accounting, per-stage sums against each
// span's own total, full lifecycle stages present, and span totals bounded
// by the client-measured RTT distribution (a span is the server-side slice
// of a round trip, so it can never exceed the wire-measured maximum).
func TestTracedSoakTCP(t *testing.T) {
	prog, trace := soakProgram(t)
	var mu sync.Mutex
	var spans []*dataplane.Span
	reg := telemetry.NewRegistry()
	trc := dataplane.NewTracer(dataplane.TracerConfig{
		SampleEvery: 8,
		Registry:    reg,
		Sink: func(sp *dataplane.Span) {
			// Spans are recycled after the sink returns: keep a deep copy.
			cp := *sp
			cp.Stages = append([]dataplane.StageRec(nil), sp.Stages...)
			mu.Lock()
			spans = append(spans, &cp)
			mu.Unlock()
		},
	})
	s, err := New(prog, Config{
		Engine:   dataplane.Config{Workers: 4, Window: 128},
		TCPAddr:  "127.0.0.1:0",
		Registry: reg,
		Tracer:   trc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Run(trace, LoadOptions{Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked != int64(len(trace)) {
		t.Fatalf("acked %d of %d", rep.Acked, len(trace))
	}
	res := s.Shutdown()
	if res.Stalled {
		t.Fatal("traced soak stalled")
	}
	trc.Close()

	want := int64(len(trace) / 8)
	if trc.Sampled() != want {
		t.Fatalf("sampled %d of %d at 1/8 (want %d)", trc.Sampled(), len(trace), want)
	}
	if int64(len(spans))+trc.Dropped() != trc.Sampled() {
		t.Fatalf("sink %d + dropped %d != sampled %d", len(spans), trc.Dropped(), trc.Sampled())
	}
	if len(spans) == 0 {
		t.Fatal("no spans reached the sink")
	}

	const slackNs = 1_000_000
	totals := make([]int64, 0, len(spans))
	for _, sp := range spans {
		if sp.Proto != "tcp" {
			t.Fatalf("pkt %d: proto %q", sp.ID, sp.Proto)
		}
		_, sum := sp.StageTotals()
		if d := sp.TotalNs - sum; d < 0 || d > slackNs {
			t.Fatalf("pkt %d: stage sum %d vs total %d", sp.ID, sum, sp.TotalNs)
		}
		stages := map[string]bool{}
		for _, r := range sp.Stages {
			stages[r.Stage] = true
		}
		for _, must := range []string{"ingress_wait", "window_wait", "admit", "crossbar", "exec", "egress"} {
			if !stages[must] {
				t.Fatalf("pkt %d missing stage %q: %+v", sp.ID, must, sp.Stages)
			}
		}
		totals = append(totals, sp.TotalNs)
	}

	// RTT reconciliation: the median server-side span must sit inside the
	// client's RTT distribution (each span is a strict slice of one round
	// trip). The RTT histogram is in µs; allow a bucket of slack.
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	medianNs := totals[len(totals)/2]
	maxRTTNs := int64(rep.Latency.Quantile(1)*1e3) + slackNs
	if medianNs > maxRTTNs {
		t.Fatalf("median span total %dns exceeds max client RTT %dns", medianNs, maxRTTNs)
	}
}
