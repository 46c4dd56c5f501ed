package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"mp5/internal/core"
)

// TestConcurrentWriters hammers the shared telemetry surfaces from many
// goroutines at once: a JSONL sink (mp5d's span stream is written by many
// goroutines), the recorder with its registry metrics, and registry
// metrics updated and rendered directly. Run under -race this fails on any
// unsynchronized path (it did before the sinks grew mutexes); the
// line-integrity check below additionally catches torn JSONL writes even
// without the race detector.
func TestConcurrentWriters(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
	)
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	reg := NewRegistry()
	rec := NewRecorder(reg, 100, 4, j.SampleSink())
	ctr := reg.NewCounter("hammer_total", "concurrent counter")
	gauge := reg.NewGauge("hammer_gauge", "concurrent gauge")
	hist := reg.NewHistogram("hammer_hist", "concurrent histogram", 0, 1000, 100)
	vec := reg.NewCounterVec("hammer_vec_total", "concurrent counter vec", "lane")

	eventHook := j.EventHook()
	recHook := rec.Hook()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := int64(g*perG + i)
				// Admit/egress pairs keep the recorder busy on both
				// the record-insert and record-delete paths and feed
				// its counters and latency histogram. All events use
				// cycle 0: concurrent emitters have no shared clock, and
				// sampling only requires nondecreasing cycles.
				adm := core.Event{Kind: core.EvAdmit, PktID: id}
				egr := core.Event{Kind: core.EvEgress, PktID: id}
				for _, e := range []core.Event{adm, egr} {
					eventHook(e)
					recHook(e)
				}
				ctr.Inc()
				gauge.Set(float64(i))
				hist.Observe(float64(i % 1000))
				vec.Inc([]string{"a", "b", "c"}[g%3])
				if i%100 == 0 {
					_ = rec.Live()
					_ = rec.Summary()
					_ = reg.PromString()
					_ = hist.Quantile(0.5)
				}
			}
		}(g)
	}
	wg.Wait()
	rec.Close()
	if err := j.Flush(); err != nil {
		t.Fatalf("jsonl flush: %v", err)
	}

	total := int64(goroutines * perG)
	if got := ctr.Value(); got != total {
		t.Fatalf("counter lost updates: %d of %d", got, total)
	}
	if got := vec.Total(); got != total {
		t.Fatalf("counter vec lost updates: %d of %d", got, total)
	}
	if got := hist.Count(); got != total {
		t.Fatalf("histogram lost observations: %d of %d", got, total)
	}
	if s := rec.Summary(); s.Completed != total {
		t.Fatalf("recorder lost packets: %d of %d completed", s.Completed, total)
	}
	if live := rec.Live(); live != 0 {
		t.Fatalf("%d packets leaked in-flight", live)
	}
	if bad := rec.Reconcile(&core.Result{Injected: total, Completed: total}); len(bad) > 0 {
		t.Fatalf("recorder metrics lost updates: %v", bad)
	}
	if got := rec.latency.Count(); got != total {
		t.Fatalf("latency histogram lost observations: %d of %d", got, total)
	}
	// Every emitted line must be a standalone JSON object: interleaved
	// writes from unsynchronized encoders would tear lines apart.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < int(2*total) {
		t.Fatalf("expected at least %d JSONL lines, got %d", 2*total, len(lines))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON (%v): %q", i, err, line)
		}
	}
}
