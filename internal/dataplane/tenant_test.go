package dataplane

import (
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/workload"
)

// checkHandle holds one handle of a drained multi-program engine to the
// state and C1 oracles against its own independent single-pipeline
// reference — tenant isolation means each program must behave exactly as
// if it ran alone.
func checkHandle(t *testing.T, e *Engine, h *Handle, prog *ir.Program, arrivals []core.Arrival) {
	t.Helper()
	if rep := equiv.Run(prog, arrivals).Verify(e.FinalRegsFor(h), e.OutputsFor(h), e.AccessOrdersFor(h)); !rep.Equivalent {
		t.Fatalf("tenant %q: not equivalent to its reference:\n%s", h.Name(), rep)
	}
}

// TestMultiTenantInterleaveEquivalence is the tenant-isolation oracle: two
// different programs interleaved packet by packet on one engine must each
// match their own single-pipeline reference exactly — final registers,
// outputs, and per-slot C1 access order.
func TestMultiTenantInterleaveEquivalence(t *testing.T) {
	progA, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := apps.Synthetic(3, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrsA := workload.Synthetic(progA, workload.Spec{Packets: 800, Pipelines: 4, Seed: 21}, 4, 64)
	arrsB := workload.Synthetic(progB, workload.Spec{Packets: 800, Pipelines: 4, Seed: 22}, 3, 32)
	for _, workers := range workerCounts {
		e := NewMulti(Config{Workers: workers, Window: 64, RecordOutputs: true, RecordAccessOrder: true})
		hA := e.AddProgram("alpha", progA, nil)
		hB := e.AddProgram("beta", progB, nil)
		e.Start()
		for i := 0; i < len(arrsA); i++ {
			if e.SubmitBatchTo(hA, arrsA[i:i+1], nil, nil) != 1 {
				t.Fatalf("workers=%d: alpha submit %d refused", workers, i)
			}
			if e.SubmitBatchTo(hB, arrsB[i:i+1], nil, nil) != 1 {
				t.Fatalf("workers=%d: beta submit %d refused", workers, i)
			}
		}
		res := e.Drain()
		if res.Stalled || res.Completed != int64(len(arrsA)+len(arrsB)) {
			t.Fatalf("workers=%d: %d of %d completed (stalled=%v)",
				workers, res.Completed, len(arrsA)+len(arrsB), res.Stalled)
		}
		checkHandle(t, e, hA, progA, arrsA)
		checkHandle(t, e, hB, progB, arrsB)
		if hA.Stats().Submitted != int64(len(arrsA)) || hB.Stats().Submitted != int64(len(arrsB)) {
			t.Fatalf("per-handle submit counters wrong: %+v / %+v", hA.Stats(), hB.Stats())
		}
	}
}

// TestMultiTenantBatchInterleave drives the same isolation oracle through
// SubmitBatchTo with alternating per-tenant chunks — the daemon's actual
// admission shape.
func TestMultiTenantBatchInterleave(t *testing.T) {
	progA, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrsA := workload.Synthetic(progA, workload.Spec{Packets: 900, Pipelines: 4, Seed: 23}, 4, 64)
	arrsB := workload.Synthetic(progB, workload.Spec{Packets: 600, Pipelines: 4, Seed: 24}, 2, 16)
	e := NewMulti(Config{Workers: 4, Window: 128, RecordOutputs: true, RecordAccessOrder: true})
	hA := e.AddProgram("alpha", progA, nil)
	hB := e.AddProgram("beta", progB, nil)
	e.Start()
	const chunk = 37
	offA, offB := 0, 0
	for offA < len(arrsA) || offB < len(arrsB) {
		if offA < len(arrsA) {
			end := min(offA+chunk, len(arrsA))
			if e.SubmitBatchTo(hA, arrsA[offA:end], nil, nil) != end-offA {
				t.Fatal("alpha batch refused")
			}
			offA = end
		}
		if offB < len(arrsB) {
			end := min(offB+chunk, len(arrsB))
			if e.SubmitBatchTo(hB, arrsB[offB:end], nil, nil) != end-offB {
				t.Fatal("beta batch refused")
			}
			offB = end
		}
	}
	res := e.Drain()
	if res.Stalled || res.Completed != int64(len(arrsA)+len(arrsB)) {
		t.Fatalf("%d of %d completed (stalled=%v)", res.Completed, len(arrsA)+len(arrsB), res.Stalled)
	}
	checkHandle(t, e, hA, progA, arrsA)
	checkHandle(t, e, hB, progB, arrsB)
}

// TestQuotaShedsWithoutBlocking pins the noisy-neighbor contract at the
// engine: a tenant whose quota is exhausted sheds the over-quota tail —
// counted, non-blocking, dense-prefix admitted count — while an unlimited
// tenant on the same engine is untouched.
func TestQuotaShedsWithoutBlocking(t *testing.T) {
	prog, err := apps.Synthetic(2, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrs := workload.Synthetic(prog, workload.Spec{Packets: 64, Pipelines: 2, Seed: 25}, 2, 32)
	e := NewMulti(Config{Workers: 2, Window: 256, RecordOutputs: true})
	// Quota smaller than the burst: the tail must shed, not block.
	q := NewQuota(8)
	hFlood := e.AddProgram("flood", prog, q)
	hGood := e.AddProgram("good", prog, nil)
	e.Start()
	// Wedge the flood tenant's quota by submitting its full burst in one
	// call: only 8 can hold tokens at once, and since workers drain them
	// concurrently the admitted count lands anywhere in [8, 64] — but any
	// refusal must be a shed, and admitted+shed must cover the burst.
	admitted := e.SubmitBatchTo(hFlood, arrs, nil, nil)
	if admitted < 8 {
		t.Fatalf("flood admitted %d, want >= quota 8", admitted)
	}
	st := hFlood.Stats()
	if st.Submitted != int64(admitted) {
		t.Fatalf("flood submitted counter %d != admitted %d", st.Submitted, admitted)
	}
	if admitted < len(arrs) && st.Shed == 0 {
		t.Fatalf("flood refused %d packets but shed counter is 0", len(arrs)-admitted)
	}
	if st.Shed+st.Submitted < int64(len(arrs)) {
		t.Fatalf("admitted %d + shed %d < burst %d", st.Submitted, st.Shed, len(arrs))
	}
	// The well-behaved tenant admits its whole burst regardless.
	if got := e.SubmitBatchTo(hGood, arrs, nil, nil); got != len(arrs) {
		t.Fatalf("good tenant admitted %d of %d behind a flooding neighbor", got, len(arrs))
	}
	res := e.Drain()
	if res.Stalled {
		t.Fatal("engine stalled")
	}
	if hGood.Stats().Completed != int64(len(arrs)) {
		t.Fatalf("good tenant completed %d of %d", hGood.Stats().Completed, len(arrs))
	}
	// Every quota token must come back once the flood's packets egressed.
	if got := q.InUse(); got != 0 {
		t.Fatalf("quota leaked %d tokens after drain", got)
	}
}

// TestHotAddUnderLoad is the engine half of the zero-downtime swap
// contract: AddProgram while traffic flows on an existing handle, then
// traffic on both — nothing drains, both tenants verify against their own
// references, and packets already in flight are untouched.
func TestHotAddUnderLoad(t *testing.T) {
	progA, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := apps.Synthetic(3, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrsA := workload.Synthetic(progA, workload.Spec{Packets: 1000, Pipelines: 4, Seed: 26}, 4, 64)
	arrsB := workload.Synthetic(progB, workload.Spec{Packets: 500, Pipelines: 4, Seed: 27}, 3, 32)
	e := NewMulti(Config{Workers: 4, Window: 64, RecordOutputs: true, RecordAccessOrder: true})
	hA := e.AddProgram("alpha", progA, nil)
	e.Start()
	// First half of alpha's traffic runs alone.
	half := len(arrsA) / 2
	if e.SubmitBatchTo(hA, arrsA[:half], nil, nil) != half {
		t.Fatal("alpha first half refused")
	}
	// Hot-add beta mid-stream — no drain, no pause; the admitter keeps
	// alpha's packets flowing right after.
	hB := e.AddProgram("beta", progB, nil)
	if hB.Version() == hA.Version() {
		t.Fatal("hot-added handle shares a version with the live one")
	}
	offA, offB := half, 0
	for offA < len(arrsA) || offB < len(arrsB) {
		if offA < len(arrsA) {
			end := min(offA+29, len(arrsA))
			if e.SubmitBatchTo(hA, arrsA[offA:end], nil, nil) != end-offA {
				t.Fatal("alpha tail refused")
			}
			offA = end
		}
		if offB < len(arrsB) {
			end := min(offB+29, len(arrsB))
			if e.SubmitBatchTo(hB, arrsB[offB:end], nil, nil) != end-offB {
				t.Fatal("beta refused")
			}
			offB = end
		}
	}
	res := e.Drain()
	if res.Stalled || res.Completed != int64(len(arrsA)+len(arrsB)) {
		t.Fatalf("%d of %d completed (stalled=%v)", res.Completed, len(arrsA)+len(arrsB), res.Stalled)
	}
	checkHandle(t, e, hA, progA, arrsA)
	checkHandle(t, e, hB, progB, arrsB)
}

// TestMultiTenantAbortRetiresAcrossHandles extends the PR 8 abort-path
// regression across tenants: a batch whose tickets are stamped when the
// engine dies must retire cleanly on every handle — reported refused with
// its ids consumed, no window tokens, no quota tokens, every packet back on
// its own handle's free list, and Drain returns. (No TicketDepths() == 0
// assertion: a dead engine's issued tickets are never served and never
// consulted; see TestSubmitAbortRetiresTickets.)
func TestMultiTenantAbortRetiresAcrossHandles(t *testing.T) {
	prog, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	arrs := workload.Synthetic(prog, workload.Spec{Packets: n, Pipelines: 2, Seed: 28}, 2, 16)
	e := NewMulti(Config{Workers: 2, Window: 32})
	q := NewQuota(16)
	hA := e.AddProgram("alpha", prog, q)
	hB := e.AddProgram("beta", prog, nil)
	e.Start()
	if e.SubmitBatchTo(hB, arrs, nil, nil) != n {
		t.Fatal("beta warmup batch refused")
	}
	// Let beta's packets egress first: in-flight packets legitimately hold
	// tickets when an engine dies, and this test is about the *undispatched*
	// chunk's retirement.
	for hB.Stats().Completed != n {
		time.Sleep(time.Millisecond)
	}
	// Kill the engine after alpha's chunk is ticketed, before dispatch.
	e.testAfterTicket = func() {
		e.abortOnce.Do(func() { close(e.abort) })
	}
	before := e.Submitted()
	if admitted := e.SubmitBatchTo(hA, arrs, nil, nil); admitted != 0 {
		t.Fatalf("SubmitBatchTo reported %d of %d admitted for a chunk retired on abort", admitted, n)
	}
	if ids := e.Submitted() - before; ids != n {
		t.Fatalf("the retired chunk consumed %d ids, want %d (ids must stay dense)", ids, n)
	}
	if got := e.WindowInUse(); got != 0 {
		t.Fatalf("abort leaked %d window tokens", got)
	}
	if got := q.InUse(); got != 0 {
		t.Fatalf("abort leaked %d quota tokens", got)
	}
	hA.freeMu.Lock()
	freed := len(hA.free)
	hA.freeMu.Unlock()
	if freed != n {
		t.Fatalf("abort recycled %d of %d alpha packets", freed, n)
	}
	if res := drainReturns(t, e); res.Completed != n {
		t.Fatalf("completed %d, want beta's %d and none of alpha's", res.Completed, n)
	}
}
