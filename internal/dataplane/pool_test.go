package dataplane

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/workload"
)

// checkEquivalence holds an already-drained engine to the C1 verdict —
// state, outputs and per-slot access order (the post-run half of
// runChecked, for tests that drive admission themselves).
func checkEquivalence(t *testing.T, prog *ir.Program, e *Engine, arrivals []core.Arrival, workers int) {
	t.Helper()
	if rep := equiv.Run(prog, arrivals).Verify(e.FinalRegs(), e.Outputs(), e.AccessOrders()); !rep.Equivalent {
		t.Fatalf("workers=%d: not equivalent to reference:\n%s", workers, rep)
	}
}

// drainReturns drains an aborted engine and fails the test if Drain does not
// come back: every worker must leave on the abort signal, none may wait on a
// ticket whose holder was retired.
func drainReturns(t *testing.T, e *Engine) *Result {
	t.Helper()
	done := make(chan *Result, 1)
	go func() { done <- e.Drain() }()
	select {
	case res := <-done:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return on an aborted engine (a worker is waiting on an orphaned ticket?)")
		return nil
	}
}

// quiesce blocks the admitter until every admitted packet egressed.
func quiesce(t *testing.T, e *Engine) {
	t.Helper()
	for e.InFlight() != 0 {
		if e.Stalled() {
			t.Fatal("engine stalled while quiescing")
		}
		runtime.Gosched()
	}
}

// TestSubmitSteadyStateAllocs is the zero-alloc acceptance criterion: once
// the free list and every scratch buffer warmed up, a Submit must perform
// zero heap allocations — on the admitter *and* on the workers, since
// AllocsPerRun counts process-wide mallocs.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race (the race runtime allocates)")
	}
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 2048, Pipelines: 2, Seed: 11}, 4, 64)
	e := New(prog, Config{Workers: 2, Window: 64})
	e.Start()
	// Warmup: populate the free list, grow every visit/slot/queue buffer to
	// its steady capacity.
	for i := range arrivals {
		if !e.Submit(&arrivals[i]) {
			t.Fatal("engine aborted during warmup")
		}
	}
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		if !e.Submit(&arrivals[i%len(arrivals)]) {
			t.Fatal("engine aborted mid-measurement")
		}
		i++
	})
	res := e.Drain()
	if res.Stalled {
		t.Fatalf("engine stalled: %d of %d completed", res.Completed, res.Injected)
	}
	if avg != 0 {
		t.Fatalf("steady-state Submit allocates %v per packet, want 0", avg)
	}
}

// TestSubmitBatchSteadyStateAllocs holds the coalesced path to (almost) the
// same bar: a whole SubmitBatch chunk must not allocate beyond the slack of
// its sync.Pool-backed batch carriers. GC is disabled during the
// measurement so a collection cannot drain the batch pool mid-run. The trace
// is skewed and the engine runs a driver per pipeline (one driver runs every
// packet whole and never parks), so that packets park and are promoted inside
// the measured window: once the hot slots' wait rings have grown, D4 must
// cost no allocation either.
func TestSubmitBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race (the race runtime allocates)")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{
		Packets: 2048, Pipelines: 2, Seed: 12, Pattern: workload.Skewed,
	}, 4, 64)
	withProcs(3, func() {
		e := New(prog, Config{Workers: 2, Window: 64})
		if len(e.drivers) != 2 {
			t.Fatalf("%d drivers, want one per pipeline", len(e.drivers))
		}
		e.Start()
		const chunk = 128
		for off := 0; off+chunk <= len(arrivals); off += chunk {
			if e.SubmitBatch(arrivals[off:off+chunk], nil) != chunk {
				t.Fatal("engine aborted during warmup")
			}
		}
		quiesce(t, e)
		// Warm-up parks a worker has tallied but not yet published (at most
		// one mailbox message's worth) may land in the window's count; the
		// floor below is far above that.
		parksBefore := e.parks.Load()
		avg := testing.AllocsPerRun(100, func() {
			if e.SubmitBatch(arrivals[:chunk], nil) != chunk {
				t.Fatal("engine aborted mid-measurement")
			}
		})
		res := e.Drain()
		if res.Stalled {
			t.Fatalf("engine stalled: %d of %d completed", res.Completed, res.Injected)
		}
		parks := res.Parks - parksBefore
		t.Logf("%v allocs per %d-packet batch, %d parks in the measured window", avg, chunk, parks)
		if parks < 10*chunk {
			t.Fatalf("only %d parks in the measured window: the gate is not exercising D4", parks)
		}
		// One batch call covers `chunk` packets; allow a couple of stray
		// allocations per call (wait-ring growth on unlucky skew) without
		// letting a per-packet regression (≥ chunk allocs/call) through.
		if avg > 2 {
			t.Fatalf("steady-state SubmitBatch allocates %v per %d-packet batch, want ~0", avg, chunk)
		}
	})
}

// TestRecyclingEquivalence forces heavy packet recycling — a window far
// smaller than the trace, so every packet struct and env is reused dozens
// of times — and holds the run to all three oracles. Under -tags mp5debug
// this doubles as the use-after-recycle detector: recycled packets are
// poisoned, so any stale reference corrupts an oracle loudly.
func TestRecyclingEquivalence(t *testing.T) {
	prog, err := apps.Synthetic(3, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 4000, Pipelines: 4, Seed: 13}, 3, 64)
	for _, workers := range workerCounts {
		runChecked(t, prog, arrivals, Config{Workers: workers, Window: 32})
	}
}

// TestSubmitBatchChunkedEquivalence drives the same trace through
// SubmitBatch at several chunk sizes (including chunk=1 and a chunk larger
// than the window) and checks bit-identical results against the reference —
// chunking must be invisible to all three oracles.
func TestSubmitBatchChunkedEquivalence(t *testing.T) {
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 1500, Pipelines: 4, Seed: 14}, 4, 64)
	for _, chunk := range []int{1, 3, 17, 256, 1024} {
		e := New(prog, Config{Workers: 4, Window: 128, RecordOutputs: true, RecordAccessOrder: true, RecordEgressOrder: true})
		e.Start()
		for off := 0; off < len(arrivals); off += chunk {
			end := off + chunk
			if end > len(arrivals) {
				end = len(arrivals)
			}
			if e.SubmitBatch(arrivals[off:end], nil) != end-off {
				t.Fatalf("chunk=%d: engine aborted at offset %d", chunk, off)
			}
		}
		res := e.Drain()
		if res.Stalled || res.Completed != int64(len(arrivals)) {
			t.Fatalf("chunk=%d: %d of %d completed (stalled=%v)", chunk, res.Completed, len(arrivals), res.Stalled)
		}
		checkEquivalence(t, prog, e, arrivals, 4)
	}
}

// TestSubmitAbortRetiresTickets is the regression test for the abort-path
// leak: a packet ticketed but not yet dispatched when the engine dies must
// give back its window token and be recycled, and nothing may wait on the
// tickets it leaves behind. It runs in both driver shapes (see
// forDriverShapes); a lone packet never fills the window, so in neither has
// the admitter claimed a baton when the engine dies.
//
// There is deliberately no TicketDepths() == 0 assertion: tickets are
// counters stamped at resolve time, retire has nothing to cancel, and a dead
// engine's issued-but-unserved tickets are never served and never consulted
// (workers leave on abort) — what matters is that Drain returns.
func TestSubmitAbortRetiresTickets(t *testing.T) {
	prog, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 4, Pipelines: 2, Seed: 15}, 2, 16)
	forDriverShapes(t, func(t *testing.T) {
		e := New(prog, Config{Workers: 2, Window: 8})
		e.Start()
		// Kill the engine at the worst possible moment: after the packet's
		// tickets are stamped, before it dispatches.
		var claimed bool
		e.testAfterTicket = func() {
			claimed = claimedBaton(e)
			e.abortOnce.Do(func() { close(e.abort) })
		}
		if e.Submit(&arrivals[0]) {
			t.Fatal("Submit succeeded on an engine that aborted mid-admission")
		}
		if claimed {
			t.Fatalf("%d drivers: the admitter claimed the baton for one packet in an empty window", len(e.drivers))
		}
		if got := e.WindowInUse(); got != 0 {
			t.Fatalf("aborted Submit leaked %d window tokens", got)
		}
		e.def.freeMu.Lock()
		freed := len(e.def.free)
		e.def.freeMu.Unlock()
		if freed != 1 {
			t.Fatalf("aborted Submit did not recycle the packet (free list has %d)", freed)
		}
		// A dead engine must refuse further admissions without consuming ids.
		before := e.Submitted()
		if e.Submit(&arrivals[1]) {
			t.Fatal("Submit succeeded on a dead engine")
		}
		if e.Submitted() != before {
			t.Fatal("dead-engine Submit consumed a packet id")
		}
		checkAbortedDrain(t, e)
	})
}

// TestSubmitBatchAbortRetiresTickets is the batched twin: a chunk whose
// tickets are already stamped when the engine dies must be retired wholesale
// — reported refused while its ids stay consumed, no held window tokens,
// every packet recycled, Drain returns (and, as above, no claim about the
// dead engine's TicketDepths). The batch fills the window, so on one driver
// the admitter has claimed the baton when the engine dies.
func TestSubmitBatchAbortRetiresTickets(t *testing.T) {
	prog, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: n, Pipelines: 2, Seed: 16}, 2, 16)
	forDriverShapes(t, func(t *testing.T) {
		e := New(prog, Config{Workers: 2, Window: n})
		e.Start()
		var claimed bool
		e.testAfterTicket = func() {
			claimed = claimedBaton(e)
			e.abortOnce.Do(func() { close(e.abort) })
		}
		before := e.Submitted()
		if admitted := e.SubmitBatch(arrivals, nil); admitted != 0 {
			t.Fatalf("SubmitBatch reported %d of %d admitted for a chunk retired on abort", admitted, n)
		}
		if ids := e.Submitted() - before; ids != n {
			t.Fatalf("the retired chunk consumed %d ids, want %d (ids must stay dense even on abort)", ids, n)
		}
		if one := len(e.drivers) == 1; claimed != one {
			t.Fatalf("%d drivers: admitter had claimed the baton at abort = %v, want %v", len(e.drivers), claimed, one)
		}
		if got := e.WindowInUse(); got != 0 {
			t.Fatalf("aborted SubmitBatch leaked %d window tokens", got)
		}
		e.def.freeMu.Lock()
		freed := len(e.def.free)
		e.def.freeMu.Unlock()
		if freed != n {
			t.Fatalf("aborted SubmitBatch recycled %d of %d packets", freed, n)
		}
		checkAbortedDrain(t, e)
	})
}

// forDriverShapes runs f as two subtests: at GOMAXPROCS 2 (one driver, whose
// baton the admitter takes) and at 8 (a driver per pipeline, which the
// admitter never steps) — whatever the host's own GOMAXPROCS.
func forDriverShapes(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			withProcs(procs, func() { f(t) })
		})
	}
}

// claimedBaton reports whether the admitter has claimed the one driver's
// baton: it holds it, or the goroutine did (its start-up pass, say) and want
// is set. Admitter-only.
func claimedBaton(e *Engine) bool {
	return e.held || e.solo != nil && e.solo.want.Load()
}

// checkAbortedDrain drains an engine whose only admissions were retired and
// checks what it leaves: nothing egressed, no queued transfer counted on any
// pipeline (WorkerStat.Mailbox), and every driver's baton free.
func checkAbortedDrain(t *testing.T, e *Engine) {
	t.Helper()
	res := drainReturns(t, e)
	if res.Completed != 0 {
		t.Fatalf("retired packets egressed: completed=%d", res.Completed)
	}
	for _, ws := range e.WorkerStats() {
		if ws.Mailbox != 0 {
			t.Fatalf("pipeline %d reports %d queued transfers after an aborted Drain", ws.ID, ws.Mailbox)
		}
	}
	checkBatonsFree(t, e)
}

// checkBatonsFree fails if any driver's baton is still held after Drain.
func checkBatonsFree(t *testing.T, e *Engine) {
	t.Helper()
	for i, d := range e.drivers {
		if d.baton.Load() {
			t.Fatalf("driver %d's baton is still held after Drain", i)
		}
	}
}

// TestPoisonOnFree checks the mp5debug build really clobbers recycled
// packets (and that release builds really don't pay for it).
func TestPoisonOnFree(t *testing.T) {
	if !poisonEnabled {
		t.Skip("poison-on-free is compiled out (build with -tags mp5debug)")
	}
	prog, err := apps.Synthetic(1, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Config{Workers: 1})
	p := e.def.getPacket()
	p.id = 42
	p.env.Fields[0] = 7
	e.def.putPackets(p)
	if p.id != -1 {
		t.Fatalf("freed packet id = %d, want poisoned -1", p.id)
	}
	if p.env.Fields[0] == 7 {
		t.Fatal("freed packet fields survived poisoning")
	}
}

// TestRecycleHammer cycles Submit/Drain engines back to back under load —
// with -race this is the pooled-object lifecycle hammer: any packet or env
// observed after recycling shows up as a race or (under mp5debug) as an
// oracle mismatch in the equivalence suites.
func TestRecycleHammer(t *testing.T) {
	prog, err := apps.Synthetic(2, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 600, Pipelines: 2, Seed: 17}, 2, 32)
	for round := 0; round < 8; round++ {
		e := New(prog, Config{Workers: 2, Window: 16, StallTimeout: 10 * time.Second})
		e.Start()
		for i := range arrivals {
			if !e.Submit(&arrivals[i]) {
				t.Fatalf("round %d: engine aborted", round)
			}
		}
		res := e.Drain()
		if res.Stalled || res.Completed != int64(len(arrivals)) {
			t.Fatalf("round %d: %d of %d completed (stalled=%v)", round, res.Completed, len(arrivals), res.Stalled)
		}
	}
}
