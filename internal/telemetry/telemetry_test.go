package telemetry_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/telemetry"
	"mp5/internal/workload"
)

// ---- registry ----

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *telemetry.Registry
	c := r.NewCounter("c", "")
	v := r.NewCounterVec("v", "", "label")
	g := r.NewGauge("g", "")
	gv := r.NewGaugeVec("gv", "", "a", "b")
	h := r.NewHistogram("h", "", 0, 10, 10)
	if c != nil || v != nil || g != nil || gv != nil || h != nil {
		t.Fatal("nil registry must return nil metrics")
	}
	// Every operation on the nil metrics must be safe.
	c.Inc()
	c.Add(3)
	v.Inc("x")
	g.Set(1)
	gv.Set(2, "x", "y")
	h.Observe(5)
	h.Rotate()
	if c.Value() != 0 || v.Total() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if r.PromString() != "" {
		t.Fatal("nil registry must render empty")
	}
}

func TestCounterAndVec(t *testing.T) {
	r := telemetry.NewRegistry()
	c := r.NewCounter("mp5_test_total", "help text")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	v := r.NewCounterVec("mp5_test_by_cause_total", "by cause", "cause")
	v.Inc("data")
	v.Add("data", 2)
	v.Inc("insert")
	if v.Value("data") != 3 || v.Value("insert") != 1 || v.Value("absent") != 0 {
		t.Fatalf("vec values wrong: %d %d", v.Value("data"), v.Value("insert"))
	}
	if v.Total() != 4 {
		t.Fatalf("vec total = %d, want 4", v.Total())
	}
	out := r.PromString()
	for _, want := range []string{
		"# HELP mp5_test_total help text",
		"# TYPE mp5_test_total counter",
		"mp5_test_total 5",
		`mp5_test_by_cause_total{cause="data"} 3`,
		`mp5_test_by_cause_total{cause="insert"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeAndVec(t *testing.T) {
	r := telemetry.NewRegistry()
	g := r.NewGauge("mp5_test_gauge", "")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("gauge after reset = %g", g.Value())
	}
	gv := r.NewGaugeVec("mp5_test_depth", "", "stage", "pipe")
	gv.Set(7, "2", "1")
	gv.Set(3, "0", "0")
	out := r.PromString()
	if !strings.Contains(out, `mp5_test_depth{stage="2",pipe="1"} 7`) {
		t.Errorf("gauge vec missing labelled sample:\n%s", out)
	}
	// Deterministic ordering: "0,0" sorts before "2,1".
	if strings.Index(out, `stage="0"`) > strings.Index(out, `stage="2"`) {
		t.Error("gauge vec samples not sorted")
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	r := telemetry.NewRegistry()
	r.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	r.NewCounter("dup", "")
}

func TestWindowedHistogram(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.NewHistogram("mp5_test_latency", "", 0, 100, 100, 0.5)
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 10 {
		t.Fatalf("count = %d", h.Count())
	}
	med := h.Quantile(0.5)
	if med < 5 || med > 7 {
		t.Fatalf("median = %g, want ~5.5", med)
	}
	// Rotate: old observations stay visible (merged window)...
	h.Rotate()
	if med2 := h.Quantile(0.5); med2 != med {
		t.Fatalf("median changed after one rotate: %g vs %g", med2, med)
	}
	// ...until a second rotate discards them.
	h.Rotate()
	h.Observe(90)
	q := h.Quantile(0.5)
	if q < 90 || q >= 91 {
		t.Fatalf("after double rotate quantile should reflect only new data, got %g", q)
	}
	// Cumulative stats survive rotation.
	if h.Count() != 11 {
		t.Fatalf("cumulative count = %d, want 11", h.Count())
	}
	out := r.PromString()
	for _, want := range []string{
		"# TYPE mp5_test_latency summary",
		`mp5_test_latency{quantile="0.5"}`,
		"mp5_test_latency_sum 145",
		"mp5_test_latency_count 11",
		"mp5_test_latency_max 90",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}

// ---- sampling ----

func ev(cycle int64, kind core.EventKind, pkt int64, stage, pipe int) core.Event {
	return core.Event{Cycle: cycle, Kind: kind, PktID: pkt, Stage: stage, Pipe: pipe}
}

func TestSamplerIntervals(t *testing.T) {
	var samples []telemetry.Sample
	s := telemetry.NewRecorder(nil, 10, 2, func(sm telemetry.Sample) { samples = append(samples, sm) })
	hook := s.Hook()
	hook(ev(0, core.EvAdmit, 1, -1, 0))
	hook(ev(2, core.EvSteer, 1, 1, 1))
	hook(ev(5, core.EvEgress, 1, -1, 1))
	// Jump two intervals ahead: the gap interval must still be emitted.
	hook(ev(25, core.EvAdmit, 2, -1, 0))
	hook(ev(27, core.EvEgress, 2, -1, 0))
	s.Close()

	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3 (incl. the empty gap)", len(samples))
	}
	s0, s1, s2 := samples[0], samples[1], samples[2]
	if s0.Cycle != 0 || s0.Admitted != 1 || s0.Egressed != 1 || s0.Steers != 1 {
		t.Errorf("interval 0 = %+v", s0)
	}
	if s0.Tput != 0.1 {
		t.Errorf("tput = %g, want 0.1", s0.Tput)
	}
	if s0.CrossbarUtil != 1.0/20 {
		t.Errorf("crossbar util = %g, want 0.05", s0.CrossbarUtil)
	}
	if s1.Cycle != 10 || s1.Admitted != 0 || s1.Egressed != 0 {
		t.Errorf("gap interval = %+v", s1)
	}
	if s2.Cycle != 20 || s2.Admitted != 1 || s2.Egressed != 1 {
		t.Errorf("interval 2 = %+v", s2)
	}
}

func TestSamplerOccupancy(t *testing.T) {
	var samples []telemetry.Sample
	s := telemetry.NewRecorder(nil, 10, 1, func(sm telemetry.Sample) { samples = append(samples, sm) })
	hook := s.Hook()
	hook(ev(0, core.EvAdmit, 1, -1, 0))
	hook(ev(0, core.EvAdmit, 2, -1, 0))
	// Packet 1: phantom at (2,0), then data lands (phantom retires,
	// data occupies), still queued at the interval boundary.
	hook(ev(1, core.EvPhantom, 1, 2, 0))
	hook(ev(2, core.EvEnqueue, 1, 2, 0))
	// Packet 2: phantom still outstanding at the boundary.
	hook(ev(3, core.EvPhantom, 2, 3, 0))
	// Cross the boundary.
	hook(ev(11, core.EvExec, 1, 2, 0))
	de := ev(12, core.EvDrop, 2, 3, 0)
	de.Cause = core.CauseData
	hook(de)
	s.Close()

	if len(samples) != 2 {
		t.Fatalf("got %d samples", len(samples))
	}
	s0 := samples[0]
	if len(s0.FIFODepth) != 1 || s0.FIFODepth[0] != (telemetry.StageDepth{Stage: 2, Pipe: 0, Depth: 1}) {
		t.Errorf("interval 0 fifo depth = %+v", s0.FIFODepth)
	}
	if len(s0.PhantomDepth) != 1 || s0.PhantomDepth[0] != (telemetry.StageDepth{Stage: 3, Pipe: 0, Depth: 1}) {
		t.Errorf("interval 0 phantom depth = %+v", s0.PhantomDepth)
	}
	// After the exec and the drop everything is empty again.
	s1 := samples[1]
	if len(s1.FIFODepth) != 0 || len(s1.PhantomDepth) != 0 {
		t.Errorf("interval 1 should be drained: %+v / %+v", s1.FIFODepth, s1.PhantomDepth)
	}
	if s1.Drops["data"] != 1 {
		t.Errorf("interval 1 drops = %+v", s1.Drops)
	}
}

// ---- latency summary ----

func TestLatencyBreakdown(t *testing.T) {
	r := telemetry.NewRecorder(nil, 100, 2, nil)
	hook := r.Hook()
	hook(ev(10, core.EvAdmit, 1, -1, 0))
	hook(ev(11, core.EvResolve, 1, 0, 0))
	hook(ev(12, core.EvEnqueue, 1, 3, 1))
	hook(ev(17, core.EvExec, 1, 3, 1)) // 5 cycles queued
	hook(ev(20, core.EvEgress, 1, -1, 1))
	// A dropped packet.
	hook(ev(30, core.EvAdmit, 2, -1, 0))
	de := ev(34, core.EvDrop, 2, 1, 0)
	de.Cause = core.CauseData
	hook(de)

	if r.Live() != 0 {
		t.Fatalf("live = %d", r.Live())
	}
	sum := r.Summary()
	if sum.Completed != 1 || sum.Dropped != 1 {
		t.Errorf("summary counts = %+v", sum)
	}
	if sum.Mean != 10 || sum.MeanQueueWait != 5 || sum.MeanService != 5 || sum.Max != 10 {
		t.Errorf("summary stats = %+v, want latency 10 = 5 wait + 5 service", sum)
	}
	if sum.P50 != 10 || sum.P99 != 10 {
		t.Errorf("summary quantiles = %+v", sum)
	}
}

func TestLatencyRecircPasses(t *testing.T) {
	r := telemetry.NewRecorder(nil, 100, 2, nil)
	hook := r.Hook()
	hook(ev(0, core.EvAdmit, 1, -1, 0))
	hook(ev(5, core.EvAdmit, 1, -1, 1)) // recirculation pass
	hook(ev(6, core.EvAdmit, 1, -1, 0)) // another
	hook(ev(9, core.EvEgress, 1, -1, 0))
	sum := r.Summary()
	if sum.Completed != 1 || sum.Mean != 9 {
		t.Fatalf("summary = %+v", sum)
	}
}

// ---- integration: a real run reconciles exactly ----

func setupRun(t testing.TB, cfg core.Config, packets int) (*core.Simulator, []core.Arrival) {
	t.Helper()
	prog, err := apps.Synthetic(3, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{
		Packets: packets, Pipelines: cfg.Pipelines, Pattern: workload.Skewed, Seed: 7,
	}, 3, 64)
	return core.NewSimulator(prog, cfg), trace
}

func TestRecorderReconcile(t *testing.T) {
	cfgs := map[string]core.Config{
		"mp5":         {Arch: core.ArchMP5, Pipelines: 4, Seed: 2},
		"mp5-drops":   {Arch: core.ArchMP5, Pipelines: 4, Seed: 2, FIFOCap: 2},
		"nod4-drops":  {Arch: core.ArchMP5NoD4, Pipelines: 4, Seed: 2, FIFOCap: 2},
		"recirc-tiny": {Arch: core.ArchRecirc, Pipelines: 4, Seed: 2, RecircIngressCap: 2},
		"starved":     {Arch: core.ArchMP5, Pipelines: 4, Seed: 2, StarveThreshold: 4},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			rec := telemetry.NewRecorder(telemetry.NewRegistry(), 100, cfg.Pipelines, nil)
			cfg.Trace = rec.Hook()
			sim, trace := setupRun(t, cfg, 3000)
			res := sim.Run(trace)
			if bad := rec.Reconcile(res); len(bad) > 0 {
				t.Fatalf("reconciliation failed:\n  %s", strings.Join(bad, "\n  "))
			}
			if rec.Live() != 0 {
				t.Errorf("%d packets still live after a drained run", rec.Live())
			}
			sum := rec.Summary()
			if sum.Completed != res.Completed {
				t.Errorf("summary completions %d != Result %d", sum.Completed, res.Completed)
			}
			// The event-derived latency must agree with the Result's
			// wherever admission is immediate. (The recirculation
			// baseline buffers packets at ingress before their first
			// admit event, so the summary excludes that wait by
			// design.)
			if res.Completed > 0 && cfg.Arch != core.ArchRecirc {
				diff := sum.Mean - res.MeanLatency
				if diff < -1e-9 || diff > 1e-9 {
					t.Errorf("summary mean %g != Result mean %g", sum.Mean, res.MeanLatency)
				}
				if sum.P99 != res.P99Latency {
					t.Errorf("summary p99 %d != Result p99 %d", sum.P99, res.P99Latency)
				}
			}
			if cfg.Arch == core.ArchRecirc && res.Completed > 0 && sum.Mean > res.MeanLatency+1e-9 {
				t.Errorf("summary mean %g exceeds arrival-based mean %g", sum.Mean, res.MeanLatency)
			}
		})
	}
}

// TestRecorderRetiresDeadPhantoms: a placeholder that lands after its packet
// died is popped dead by the simulator with no event, so the recorder must
// not count it. With FIFOCap 2 hundreds of phantoms land late, and the
// drained run's last sample must still show no phantom occupancy.
func TestRecorderRetiresDeadPhantoms(t *testing.T) {
	var last telemetry.Sample
	rec := telemetry.NewRecorder(nil, 100, 4, func(s telemetry.Sample) { last = s })
	cfg := core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 2, FIFOCap: 2, Trace: rec.Hook()}
	sim, trace := setupRun(t, cfg, 3000)
	if res := sim.Run(trace); res.DroppedPhantom == 0 || res.Completed == res.Injected {
		t.Fatalf("run drops no phantoms or no packets: %+v", res)
	}
	rec.Close()
	if len(last.PhantomDepth) != 0 {
		t.Fatalf("drained run's last sample shows phantoms: %+v", last.PhantomDepth)
	}
}

func TestReconcileDetectsMismatch(t *testing.T) {
	rec := telemetry.NewRecorder(telemetry.NewRegistry(), 100, 4, nil)
	cfg := core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 2, Trace: rec.Hook()}
	sim, trace := setupRun(t, cfg, 500)
	res := sim.Run(trace)
	res.Completed++ // corrupt the result
	if bad := rec.Reconcile(res); len(bad) == 0 {
		t.Fatal("reconcile missed a corrupted result")
	}
}

// ---- JSONL ----

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	j := telemetry.NewJSONL(&buf)
	rec := telemetry.NewRecorder(nil, 100, 4, j.SampleSink())
	cfg := core.Config{
		Arch: core.ArchMP5, Pipelines: 4, Seed: 2,
		Trace: telemetry.Tee(j.EventHook(), rec.Hook()),
	}
	sim, trace := setupRun(t, cfg, 800)
	res := sim.Run(trace)
	rec.Close()
	j.Object(map[string]any{"type": "run", "completed": res.Completed})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every line is a valid, type-tagged JSON object; the per-type
	// tallies are consistent with the run.
	counts := map[string]int64{}
	var egressEvents, accessEvents, sampleEgress int64
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		typ, _ := rec["type"].(string)
		counts[typ]++
		switch typ {
		case "event":
			if rec["kind"] == "egress" {
				egressEvents++
			}
			if rec["kind"] == "access" {
				accessEvents++
				if s, _ := rec["state"].(string); !strings.HasPrefix(s, "r") || !strings.Contains(s, "[") {
					t.Fatalf("access event without a state key: %v", rec)
				}
			} else if _, ok := rec["state"]; ok {
				t.Fatalf("non-access event carries a state key: %v", rec)
			}
		case "sample":
			sampleEgress += int64(rec["egressed"].(float64))
		case "run":
		default:
			t.Fatalf("unknown record type %q", typ)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["event"] == 0 || counts["sample"] == 0 || counts["run"] != 1 {
		t.Fatalf("record counts = %+v", counts)
	}
	if egressEvents != res.Completed {
		t.Errorf("egress events %d != completed %d", egressEvents, res.Completed)
	}
	if sampleEgress != res.Completed {
		t.Errorf("samples account for %d egresses, want %d", sampleEgress, res.Completed)
	}
	if sum := rec.Summary(); sum.Completed+sum.Dropped != res.Injected {
		t.Errorf("summary closes %d+%d packets, want %d injected", sum.Completed, sum.Dropped, res.Injected)
	}
	if accessEvents == 0 {
		t.Error("stateful program produced no access events in the stream")
	}
}
