package dataplane

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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

// onDriverGoroutine reports whether the caller runs on a driver goroutine
// (rather than on the admitter stepping the driver itself).
func onDriverGoroutine() bool {
	buf := make([]byte, 16<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*driver).run"))
}

// execSplit counts visit executions by who ran them — the admitter stepping
// the driver itself, or a driver goroutine. Install hook as testBeforeExec.
type execSplit struct{ adm, gor atomic.Int64 }

func (c *execSplit) hook(*packet) {
	if onDriverGoroutine() {
		c.gor.Add(1)
	} else {
		c.adm.Add(1)
	}
}

// TestDriverCountInvariance holds the engine to the three oracles on every
// shape the deal can take: all pipelines on one driver (GOMAXPROCS 2), one
// driver short with an uneven deal (GOMAXPROCS k), and a driver per pipeline
// (GOMAXPROCS k+1). How many goroutines step the pipelines must change
// nothing a packet can observe. On one driver every hop is in place and each
// packet runs whole in admission order, so steers are still counted but no
// packet parks and none overtakes another at egress. The admitter steps the
// one driver instead of waiting on it, and never steps a driver when there
// are several.
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
						var split execSplit
						e, res := runCheckedEngine(t, prog, arrivals, Config{Workers: k}, func(e *Engine) {
							e.testBeforeExec = split.hook
						})
						if len(e.drivers) != want {
							t.Fatalf("%d drivers, want %d", len(e.drivers), want)
						}
						for i, w := range e.workers {
							if w.d != e.drivers[i%want] {
								t.Fatalf("pipeline %d is not on driver %d", i, i%want)
							}
						}
						if want == 1 && (res.Steers == 0 || res.Parks != 0 || res.Reordered != 0) {
							t.Fatalf("one driver: %d steers, %d parks, %d reordered — want in-place hops counted as steers, and admission order kept without a park",
								res.Steers, res.Parks, res.Reordered)
						}
						if want == 1 && split.adm.Load() == 0 {
							t.Fatal("one driver: the admitter never stepped it")
						}
						if want == k {
							if n := split.adm.Load(); n != 0 {
								t.Fatalf("%d drivers: the admitter ran %d visits itself", want, n)
							}
						}
					})
				})
			}
		}
	}
}

// TestInPlaceHopNeverStrands runs three pipelines on two drivers — 0 and 2
// share one — with every packet steering 0→1→2→0, so two cross-driver steers
// are followed by an in-place hop, through a window of 4: a steer left in an
// xout buffer while its driver blocks, or an egress burst left on a pipeline
// its driver did not publish, would stop the engine within a handful of
// packets.
func TestInPlaceHopNeverStrands(t *testing.T) {
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

// TestAdmitterLeavesWorkToDriver has the admitter hold a one-driver
// engine's baton, submit less than a window, and then call nothing. Its sends
// skip the kick while it holds the baton, and a window never filled means it
// steps nothing itself, so only its leave can get the goroutine going: every
// OnEgress must arrive without a Drain, all of it run by the goroutine.
func TestAdmitterLeavesWorkToDriver(t *testing.T) {
	const n = 100
	prog, err := apps.Synthetic(4, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: n, Pipelines: 2, Seed: 31}, 4, 16)
	withProcs(2, func() {
		var egressed atomic.Int64
		all := make(chan struct{})
		e := New(prog, Config{Workers: 2, Window: 256, OnEgress: func(int64, uint64) {
			if egressed.Add(1) == n {
				close(all)
			}
		}})
		if len(e.drivers) != 1 {
			t.Fatalf("%d drivers, want 1", len(e.drivers))
		}
		var split execSplit
		e.testBeforeExec = split.hook
		e.Start()
		// SubmitBatch's own take would do, but the goroutine may still be on
		// its start-up pass then, and its want-driven kicks could stand in
		// for leave's: claim the baton first, and wait until it is ours.
		for deadline := time.Now().Add(5 * time.Second); !e.held; e.take() {
			if time.Now().After(deadline) {
				t.Fatal("the admitter never got the idle driver's baton")
			}
			runtime.Gosched()
		}
		if got := e.SubmitBatch(arrivals, nil); got != n {
			t.Fatalf("admitted %d of %d", got, n)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d packets egressed with the admitter gone", egressed.Load(), n)
		}
		res := e.Drain()
		if res.Stalled || res.Completed != n {
			t.Fatalf("%d of %d completed (stalled=%v)", res.Completed, n, res.Stalled)
		}
		if adm, gor := split.adm.Load(), split.gor.Load(); adm != 0 || gor == 0 {
			t.Fatalf("admitter ran %d visits, goroutine %d: want the goroutine to run them all", adm, gor)
		}
	})
}

// TestAdmitterReclaimsBaton starts a long SubmitBatch while the driver
// goroutine holds the baton — wedged inside a step on packet 0 until the
// admitter, on entry, asks for it — and checks the goroutine hands it over at
// that step's end: it runs no later packet before the admitter's first visit,
// and the admitter then runs most of the visits.
func TestAdmitterReclaimsBaton(t *testing.T) {
	const n = 5000
	prog, err := apps.Synthetic(4, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: n, Pipelines: 2, Seed: 32}, 4, 16)
	withProcs(2, func() {
		e := New(prog, Config{Workers: 2, Window: 64, RecordOutputs: true, RecordAccessOrder: true})
		if len(e.drivers) != 1 {
			t.Fatalf("%d drivers, want 1", len(e.drivers))
		}
		d := e.drivers[0]
		var split execSplit
		var wedged atomic.Bool
		var early atomic.Int64
		entered := make(chan struct{})
		e.testBeforeExec = func(p *packet) {
			if !onDriverGoroutine() {
				split.adm.Add(1)
				return
			}
			split.gor.Add(1)
			if p.id != 0 && split.adm.Load() == 0 {
				early.Add(1)
			}
			if !wedged.CompareAndSwap(false, true) {
				return
			}
			close(entered)
			for deadline := time.Now().Add(5 * time.Second); !d.want.Load() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
		e.Start()
		if got := e.SubmitBatch(arrivals[:1], nil); got != 1 {
			t.Fatalf("admitted %d of 1", got)
		}
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("the driver goroutine never started on packet 0")
		}
		if !d.baton.Load() {
			t.Fatal("the goroutine is stepping without the baton")
		}
		if got := e.SubmitBatch(arrivals[1:], nil); got != n-1 {
			t.Fatalf("admitted %d of %d", got, n-1)
		}
		res := e.Drain()
		if res.Stalled || res.Completed != n {
			t.Fatalf("%d of %d completed (stalled=%v)", res.Completed, n, res.Stalled)
		}
		if got := early.Load(); got != 0 {
			t.Fatalf("the goroutine ran %d visits of later packets before the admitter's first", got)
		}
		if adm, gor := split.adm.Load(), split.gor.Load(); adm <= gor {
			t.Fatalf("admitter ran %d visits, goroutine %d: it did not reclaim the baton", adm, gor)
		}
		checkEquivalence(t, prog, e, arrivals, 2)
	})
}
