package dataplane

import (
	"runtime"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/workload"
)

// BenchmarkSubmitBatchScatter is the in-repo A/B benchmark for the visit
// path (resolve, ticket, steer, park, check and execute), in the shape of
// the benchmark's engine-scatter workload: eight stateful stages of eight
// entries each on a skewed, churning trace, two pipelines, a 256-packet
// window, and 256-packet SubmitBatch calls, closed loop. b.N counts packets;
// the engine is built and warmed up with one pass of the trace off the
// clock, and the timed region ends when the last packet egresses. The
// driver count follows GOMAXPROCS, as in the daemon. Single 1 s runs on a
// busy 2-vCPU host spread ±10–15 %: compare two commits with alternated
// pairs (DESIGN §12), e.g.
//
//	go test -run '^$' -bench SubmitBatchScatter -benchtime 1s -count 1 ./internal/dataplane
func BenchmarkSubmitBatchScatter(b *testing.B) {
	benchSubmitBatch(b, 2, workload.Skewed, 256)
}

// BenchmarkVisit prices one visit: the same 8 x 8 program on a uniform
// trace (few collisions, so little parking) with one pipeline per driver
// the host gives the engine (GOMAXPROCS-1, at least one), reporting ns/pkt
// and ns/visit (every packet visits all eight stateful stages).
func BenchmarkVisit(b *testing.B) {
	benchSubmitBatch(b, max(1, runtime.GOMAXPROCS(0)-1), workload.Uniform, 0)
}

// benchSubmitBatch runs the 8 x 8 synthetic program closed loop through
// 256-packet SubmitBatch calls against a 256-packet window.
func benchSubmitBatch(b *testing.B, workers int, pattern workload.Pattern, churn int64) {
	const stages, regSize, chunk = 8, 8, 256
	prog, err := apps.Synthetic(stages, regSize, 16)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{
		Packets: 1 << 16, Pipelines: 4, Seed: 1, Pattern: pattern, ChurnInterval: churn,
	}, stages, regSize)
	e := New(prog, Config{Workers: workers, Window: chunk})
	e.Start()
	for off := 0; off < len(arrivals); off += chunk {
		if e.SubmitBatch(arrivals[off:off+chunk], nil) != chunk {
			b.Fatal("engine refused packets during warm-up")
		}
	}
	base := e.Submitted()
	b.ResetTimer()
	for n, off := 0, 0; n < b.N; {
		m := min(chunk, b.N-n)
		if e.SubmitBatch(arrivals[off:off+m], nil) != m {
			b.Fatal("engine refused packets")
		}
		n += m
		if off += chunk; off == len(arrivals) {
			off = 0
		}
	}
	res := e.Drain()
	b.StopTimer()
	if res.Stalled || res.Completed != base+int64(b.N) {
		b.Fatalf("%d of %d packets completed (stalled=%v)", res.Completed, base+int64(b.N), res.Stalled)
	}
	perPkt := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perPkt, "ns/pkt")
	b.ReportMetric(perPkt/stages, "ns/visit")
}
