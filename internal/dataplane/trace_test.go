package dataplane

import (
	"strings"
	"sync"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/telemetry"
	"mp5/internal/workload"
)

// collectSpans runs trace through a traced engine (sampling 1/every) and
// returns the collected spans.
func collectSpans(t *testing.T, workers, every, packets int) ([]*Span, *Tracer, *telemetry.Registry) {
	t.Helper()
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{
		Packets: packets, Pipelines: 4, Seed: 11, Pattern: workload.Skewed,
	}, 4, 64)

	var mu sync.Mutex
	var got []*Span
	reg := telemetry.NewRegistry()
	trc := NewTracer(TracerConfig{
		SampleEvery: every,
		Registry:    reg,
		Sink: func(sp *Span) {
			// Spans are recycled after the sink returns: keep a deep copy.
			cp := *sp
			cp.Stages = append([]StageRec(nil), sp.Stages...)
			mu.Lock()
			got = append(got, &cp)
			mu.Unlock()
		},
	})
	e := New(prog, Config{Workers: workers, Window: 64, Tracer: trc})
	e.Start()
	for i := range trace {
		if e.SubmitBatch(trace[i:i+1], []*Span{trc.Sample()}) != 1 {
			t.Fatal("engine aborted mid-stream")
		}
	}
	res := e.Drain()
	if res.Stalled || res.Completed != int64(len(trace)) {
		t.Fatalf("drain: %+v", res)
	}
	trc.Close()
	return got, trc, reg
}

// TestSpanStageSums checks the central span invariant: the per-stage
// segment durations of every collected span sum exactly to its TotalNs
// (modulo the sub-microsecond gap between the final stamp and the finish
// stamp), every segment is non-negative, and the lifecycle is complete —
// window_wait, admit, crossbar, exec, and egress all appear.
func TestSpanStageSums(t *testing.T) {
	spans, trc, _ := collectSpans(t, 4, 1, 600)
	if int64(len(spans))+trc.Dropped() != trc.Sampled() {
		t.Fatalf("collected %d + dropped %d != sampled %d", len(spans), trc.Dropped(), trc.Sampled())
	}
	if len(spans) == 0 {
		t.Fatal("no spans collected at sampling 1/1")
	}
	const slackNs = 1_000_000 // finish stamps TotalNs a hair after the last Advance
	seen := map[string]bool{}
	for _, sp := range spans {
		_, sum := sp.StageTotals()
		if d := sp.TotalNs - sum; d < 0 || d > slackNs {
			t.Fatalf("pkt %d: stage sum %d vs total %d (gap %d)", sp.ID, sum, sp.TotalNs, d)
		}
		for _, r := range sp.Stages {
			if r.Ns < 0 {
				t.Fatalf("pkt %d: negative %s segment %d", sp.ID, r.Stage, r.Ns)
			}
			seen[r.Stage] = true
		}
	}
	for _, want := range []string{"window_wait", "admit", "crossbar", "exec", "egress"} {
		if !seen[want] {
			t.Fatalf("stage %q never recorded across %d spans", want, len(spans))
		}
	}
}

// TestTracerSamplingRate checks the 1/N sampling contract: the atomic
// decision counter samples exactly floor(N/every) of N serial decodes.
func TestTracerSamplingRate(t *testing.T) {
	spans, trc, _ := collectSpans(t, 2, 8, 400)
	if want := int64(400 / 8); trc.Sampled() != want {
		t.Fatalf("sampled %d of 400 at 1/8 (want %d)", trc.Sampled(), want)
	}
	if int64(len(spans)) != trc.Sampled()-trc.Dropped() {
		t.Fatalf("sink saw %d spans, sampled %d dropped %d", len(spans), trc.Sampled(), trc.Dropped())
	}
}

// TestTracerRegistrySurface checks the collector fed the shared registry:
// stage histograms appear in the Prometheus snapshot with sample counts,
// and StageStats mirrors them (ending with the total row).
func TestTracerRegistrySurface(t *testing.T) {
	_, trc, reg := collectSpans(t, 2, 1, 300)
	prom := reg.PromString()
	for _, want := range []string{
		"# TYPE trace_exec_us summary",
		"# TYPE trace_total_us summary",
		"trace_spans_sampled_total 300",
		"trace_total_us_count 300",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics snapshot missing %q", want)
		}
	}
	st := trc.StageStats()
	if len(st) == 0 {
		t.Fatal("StageStats empty after a traced run")
	}
	last := st[len(st)-1]
	if last.Stage != "total" || last.Count != 300 {
		t.Fatalf("total row: %+v", last)
	}
	for _, s := range st {
		if s.P99us < s.P50us {
			t.Fatalf("%s: p99 %f < p50 %f", s.Stage, s.P99us, s.P50us)
		}
	}
}

// TestWorkerStatsAndDepths checks the live introspection accessors settle
// to a drained state: zero window in use, zero pending tickets, zero
// parked packets, and per-worker egress counts conserving the trace.
func TestWorkerStatsAndDepths(t *testing.T) {
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{
		Packets: 500, Pipelines: 4, Seed: 3,
	}, 4, 64)
	trc := NewTracer(TracerConfig{SampleEvery: 16})
	defer trc.Close()
	e := New(prog, Config{Workers: 3, Window: 32, Tracer: trc})
	res := e.Run(trace)
	if res.Stalled {
		t.Fatal("stalled")
	}
	if got := e.WindowInUse(); got != 0 {
		t.Fatalf("window in use after drain: %d", got)
	}
	if e.WindowCap() != 32 {
		t.Fatalf("window cap: %d", e.WindowCap())
	}
	pending, maxDepth := e.TicketDepths()
	if pending != 0 || maxDepth != 0 {
		t.Fatalf("tickets pending after drain: %d (max %d)", pending, maxDepth)
	}
	ws := e.WorkerStats()
	if len(ws) != 3 {
		t.Fatalf("worker stats: %d entries", len(ws))
	}
	var egressed, processed int64
	for _, w := range ws {
		if w.Parked != 0 || w.Mailbox != 0 {
			t.Fatalf("worker %d not drained: %+v", w.ID, w)
		}
		if w.MailboxCap != 32 {
			t.Fatalf("worker %d mailbox cap %d", w.ID, w.MailboxCap)
		}
		egressed += w.Egressed
		processed += w.Processed
	}
	if egressed != 500 {
		t.Fatalf("per-worker egress counts sum to %d of 500", egressed)
	}
	if processed < 500 {
		t.Fatalf("process invocations %d < packets", processed)
	}
}

// TestRunWithoutTracer pins the disabled path: a nil tracer must not
// change behavior, and the busy-time accounting must stay off.
func TestRunWithoutTracer(t *testing.T) {
	prog, err := apps.Synthetic(3, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{Packets: 200, Pipelines: 4, Seed: 5}, 3, 32)
	e := New(prog, Config{Workers: 2, Window: 16})
	res := e.Run(trace)
	if res.Stalled || res.Completed != 200 {
		t.Fatalf("untraced run: %+v", res)
	}
	for _, w := range e.WorkerStats() {
		if w.BusyNs != 0 {
			t.Fatalf("busy accounting ran without a tracer: %+v", w)
		}
	}
	var nilTrc *Tracer
	if sp := nilTrc.Sample(); sp != nil {
		t.Fatal("nil tracer sampled a packet")
	}
	nilTrc.Rotate()
	nilTrc.Close()
	if nilTrc.StageStats() != nil || nilTrc.Sampled() != 0 {
		t.Fatal("nil tracer not inert")
	}
}
