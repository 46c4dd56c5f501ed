package dataplane

import (
	"fmt"
	"runtime"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/workload"
)

// withProcs runs f at GOMAXPROCS n — the one input the driver count is
// derived from — and restores the old value.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestDriverCountInvariance holds the engine to the three oracles on every
// shape the deal can take: all pipelines on one driver (GOMAXPROCS 2), one
// driver short with an uneven deal (GOMAXPROCS k), and a driver per pipeline
// (GOMAXPROCS k+1). How many goroutines step the pipelines must change
// nothing a packet can observe — and on a driver per pipeline, not even a
// local FIFO is touched: that shape is exactly the one-goroutine-per-pipeline
// engine.
func TestDriverCountInvariance(t *testing.T) {
	for _, tr := range []struct {
		name            string
		stages, regSize int
		pattern         workload.Pattern
	}{
		{"skewed-8x8", 8, 8, workload.Skewed},
		{"uniform-4x512", 4, 512, workload.Uniform},
	} {
		prog, err := apps.Synthetic(tr.stages, tr.regSize, 16)
		if err != nil {
			t.Fatal(err)
		}
		arrivals := workload.Synthetic(prog, workload.Spec{
			Packets: 3000, Pipelines: 4, Seed: 23, Pattern: tr.pattern,
		}, tr.stages, tr.regSize)
		for _, k := range []int{2, 4} {
			shapes := []int{2, k, k + 1}
			if k == 2 {
				shapes = shapes[1:]
			}
			for _, procs := range shapes {
				want := min(k, max(1, procs-1))
				t.Run(fmt.Sprintf("%s/k%d/procs%d", tr.name, k, procs), func(t *testing.T) {
					withProcs(procs, func() {
						e, res := runCheckedEngine(t, prog, arrivals, Config{Workers: k})
						if len(e.drivers) != want {
							t.Fatalf("%d drivers, want %d", len(e.drivers), want)
						}
						for i, w := range e.workers {
							if w.d != e.drivers[i%want] {
								t.Fatalf("pipeline %d is not on driver %d", i, i%want)
							}
						}
						if want == 1 && (res.Steers == 0 || res.Parks == 0) {
							t.Fatalf("one driver: %d steers, %d parks — a local steer is still a steer, and still counted", res.Steers, res.Parks)
						}
						if want == k {
							for i, d := range e.drivers {
								if cap(d.local) != 0 {
									t.Fatalf("driver %d owns one pipeline but wrote its local FIFO", i)
								}
							}
						}
					})
				})
			}
		}
	}
}

// TestLocalSteerNeverStrands runs three pipelines on two drivers — 0 and 2
// share one — with every packet steering 0→1→2→0, so cross-driver and local
// steers alternate, through a window of 4: a steer left in an xout buffer, or
// in the local FIFO, while its driver blocks would stop the engine within a
// handful of packets.
func TestLocalSteerNeverStrands(t *testing.T) {
	const stages, regSize, packets = 4, 6, 10000
	prog, err := apps.Synthetic(stages, regSize, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin placement, never remapped: index i lives on pipeline i%3.
	path := [stages]int64{0, 1, 2, 0}
	arrivals := make([]core.Arrival, packets)
	for i := range arrivals {
		fields := make([]int64, len(prog.Fields))
		for s, pipe := range path {
			fields[prog.FieldIndex(fmt.Sprintf("h%d", s))] = pipe + 3*int64((i>>s)&1)
		}
		arrivals[i] = core.Arrival{Size: 64, Fields: fields}
	}
	withProcs(3, func() {
		e := New(prog, Config{
			Workers: 3, Window: 4, RemapInterval: -1,
			RecordOutputs: true, RecordAccessOrder: true,
		})
		if len(e.drivers) != 2 || e.workers[0].d != e.workers[2].d || e.workers[0].d == e.workers[1].d {
			t.Fatalf("%d drivers: want pipelines 0 and 2 on one, 1 on the other", len(e.drivers))
		}
		e.Start()
		if got := e.SubmitBatch(arrivals, nil); got != packets {
			t.Fatalf("admitted %d of %d", got, packets)
		}
		res := drainReturns(t, e)
		if res.Stalled || res.Completed != packets {
			t.Fatalf("%d of %d completed (stalled=%v)", res.Completed, packets, res.Stalled)
		}
		if res.Steers != 3*packets {
			t.Fatalf("%d steers, want three per packet (%d)", res.Steers, 3*packets)
		}
		checkEquivalence(t, prog, e, arrivals, 3)
	})
}
