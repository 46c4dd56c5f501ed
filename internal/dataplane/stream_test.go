package dataplane

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/equiv"
	"mp5/internal/workload"
)

// TestStreamingEquivalence drives the engine through the open-ended
// Start/Submit/Drain path instead of Run and holds it to the same
// differential bar: state, outputs, and per-slot C1 access order must match
// the single-pipeline reference.
func TestStreamingEquivalence(t *testing.T) {
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{
		Packets: 3000, Pipelines: 4, Seed: 17, Pattern: workload.Skewed,
	}, 4, 64)
	for _, k := range workerCounts {
		t.Run(string(rune('0'+k)), func(t *testing.T) {
			e := New(prog, Config{
				Workers: k, RecordOutputs: true, RecordAccessOrder: true,
			})
			e.Start()
			for i := range arrivals {
				if e.Submitted() != int64(i) {
					t.Fatalf("Submitted %d before submitting packet %d", e.Submitted(), i)
				}
				if !e.Submit(&arrivals[i]) {
					t.Fatalf("Submit of packet %d failed", i)
				}
			}
			res := e.Drain()
			if res.Stalled || res.Completed != int64(len(arrivals)) {
				t.Fatalf("stream: %d of %d completed (stalled=%v)", res.Completed, len(arrivals), res.Stalled)
			}
			checkEquivalence(t, prog, e, arrivals, k)
		})
	}
}

// TestStreamingIdleIsNotStall checks the watchdog's streaming contract: a
// traffic gap longer than StallTimeout with nothing in flight must not trip
// the stall abort, and the stream must keep accepting packets afterwards.
func TestStreamingIdleIsNotStall(t *testing.T) {
	prog, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 200, Pipelines: 2, Seed: 3}, 2, 16)
	e := New(prog, Config{Workers: 2, StallTimeout: 20 * time.Millisecond, RecordOutputs: true})
	e.Start()
	half := len(arrivals) / 2
	for i := 0; i < half; i++ {
		if !e.Submit(&arrivals[i]) {
			t.Fatalf("Submit of packet %d failed", i)
		}
	}
	// Let the first half fully egress, then sit idle well past the stall
	// timeout: the watchdog must treat the empty stream as healthy.
	deadline := time.Now().Add(2 * time.Second)
	for e.Completed() != int64(half) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if e.Stalled() {
		t.Fatal("watchdog declared an idle stream stalled")
	}
	for i := half; i < len(arrivals); i++ {
		if !e.Submit(&arrivals[i]) {
			t.Fatalf("Submit of packet %d after the idle gap failed", i)
		}
	}
	res := e.Drain()
	if res.Stalled || res.Completed != int64(len(arrivals)) {
		t.Fatalf("after idle gap: %d of %d completed (stalled=%v)", res.Completed, len(arrivals), res.Stalled)
	}
	if rep := equiv.CheckState(prog, e.FinalRegs(), e.Outputs(), arrivals); !rep.Equivalent {
		t.Fatalf("not equivalent after idle gap:\n%s", rep)
	}
}

// TestDrainWithoutStart covers the degenerate lifecycle: an engine that was
// never started drains to an empty result instead of hanging or panicking.
func TestDrainWithoutStart(t *testing.T) {
	prog, err := apps.Synthetic(1, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	res := New(prog, Config{Workers: 2}).Drain()
	if res.Injected != 0 || res.Completed != 0 || res.Stalled {
		t.Fatalf("unstarted drain: %+v", res)
	}
}

// seededOwners builds an engine with the given placement seed and returns
// the initial owner assignment of every sharded array.
func seededOwners(t *testing.T, seed int64, k int) [][]int {
	t.Helper()
	prog, err := apps.Synthetic(2, 64, 16) // 64 >= k*4 for k=4
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Config{Workers: k, Seed: seed})
	var out [][]int
	for r := range e.def.shard {
		if e.def.shard[r].sharded {
			out = append(out, append([]int(nil), e.def.shard[r].owner...))
		}
	}
	if len(out) == 0 {
		t.Fatal("synthetic program has no sharded arrays")
	}
	return out
}

// TestSeededPlacementDeterminism wires Config.Seed: the same seed must
// reproduce the same initial placement, different seeds must produce
// different ones (size 64 >= k*4), seed 0 must keep plain round-robin,
// every seeded placement must stay perfectly balanced, and arrays of equal
// size must get identical owners under any seed.
func TestSeededPlacementDeterminism(t *testing.T) {
	const k = 4
	for _, seed := range []int64{0, 7, 42, 43} {
		owners := seededOwners(t, seed, k)
		for _, o := range owners[1:] {
			if !reflect.DeepEqual(o, owners[0]) {
				t.Fatalf("seed %d: equal-size arrays placed differently:\n%v\n%v", seed, owners[0], o)
			}
		}
	}
	a1 := seededOwners(t, 42, k)
	a2 := seededOwners(t, 42, k)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same seed produced different placements:\n%v\n%v", a1, a2)
	}
	b := seededOwners(t, 43, k)
	if reflect.DeepEqual(a1, b) {
		t.Fatalf("seeds 42 and 43 produced identical placements: %v", a1)
	}
	rr := seededOwners(t, 0, k)
	for _, owners := range rr {
		for i, o := range owners {
			if o != i%k {
				t.Fatalf("seed 0 placement is not round-robin: owner[%d]=%d", i, o)
			}
		}
	}
	for _, owners := range a1 {
		perWorker := make([]int, k)
		for _, o := range owners {
			perWorker[o]++
		}
		for w := 1; w < k; w++ {
			if perWorker[w] != perWorker[0] {
				t.Fatalf("seeded placement unbalanced: %v", perWorker)
			}
		}
	}
}

// TestSeededPlacementEquivalence makes sure a seeded placement changes only
// the steering geometry, never the function: the differential bar holds.
func TestSeededPlacementEquivalence(t *testing.T) {
	prog, err := apps.Synthetic(2, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{
		Packets: 2000, Pipelines: 4, Seed: 5, Pattern: workload.Skewed,
	}, 2, 64)
	runChecked(t, prog, arrivals, Config{Workers: 4, Seed: 99})
}

// TestOnEgressHook checks the egress callback: every admitted id is
// reported exactly once, and it carries the tag the packet was submitted
// with — through SubmitBatchTo, in one chunk and one packet at a time, zero
// through the untagged Run/SubmitBatch surface.
func TestOnEgressHook(t *testing.T) {
	prog, err := apps.Synthetic(2, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 1000, Pipelines: 4, Seed: 8}, 2, 32)
	tagOf := func(id int) uint64 { return uint64(id)<<32 | 0xabc }
	for _, tagged := range []bool{false, true} {
		seen := make([]atomic.Int32, len(arrivals))
		var badTag atomic.Int64
		cfg := Config{Workers: 4}
		cfg.OnEgress = func(id int64, tag uint64) {
			seen[id].Add(1)
			if want := tagOf(int(id)); tagged && tag != want || !tagged && tag != 0 {
				badTag.Add(1)
			}
		}
		e := New(prog, cfg)
		var res *Result
		if tagged {
			tags := make([]uint64, len(arrivals))
			for i := range tags {
				tags[i] = tagOf(i)
			}
			half := len(arrivals) / 2
			e.Start()
			if got := e.SubmitBatchTo(e.Default(), arrivals[:half], nil, tags[:half]); got != half {
				t.Fatalf("SubmitBatchTo admitted %d of %d", got, half)
			}
			for i := half; i < len(arrivals); i++ {
				if e.SubmitBatchTo(e.Default(), arrivals[i:i+1], nil, tags[i:i+1]) != 1 {
					t.Fatalf("SubmitBatchTo refused packet %d", i)
				}
			}
			res = e.Drain()
		} else {
			res = e.Run(arrivals)
		}
		if res.Completed != int64(len(arrivals)) {
			t.Fatalf("%d of %d completed", res.Completed, len(arrivals))
		}
		for id := range seen {
			if n := seen[id].Load(); n != 1 {
				t.Fatalf("packet %d egressed %d times", id, n)
			}
		}
		if n := badTag.Load(); n != 0 {
			t.Fatalf("tagged=%v: %d packets egressed with the wrong tag", tagged, n)
		}
	}
}

// TestShardMapSnapshot reads the placement snapshot concurrently with a
// churn-heavy run (the race detector guards that it reads nothing a run
// writes) and validates its shape afterwards.
func TestShardMapSnapshot(t *testing.T) {
	prog, err := apps.Synthetic(2, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{
		Packets: 4000, Pipelines: 4, Seed: 5, Pattern: workload.Skewed, ChurnInterval: 64,
	}, 2, 64)
	e := New(prog, Config{Workers: 4})
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				e.ShardMap()
			}
		}
	}()
	res := e.Run(arrivals)
	close(stop)
	if res.Completed != int64(len(arrivals)) {
		t.Fatalf("%d of %d completed", res.Completed, len(arrivals))
	}
	sm := e.ShardMap()
	if len(sm) != len(prog.Regs) {
		t.Fatalf("shard map covers %d arrays, program has %d", len(sm), len(prog.Regs))
	}
	for _, ent := range sm {
		if ent.Sharded && len(ent.Owners) != prog.Regs[ent.Reg].Size {
			t.Fatalf("r%d: %d owners for size %d", ent.Reg, len(ent.Owners), prog.Regs[ent.Reg].Size)
		}
		if !ent.Sharded && len(ent.Owners) != 1 {
			t.Fatalf("unsharded r%d has %d owners", ent.Reg, len(ent.Owners))
		}
		for _, o := range ent.Owners {
			if o < 0 || o >= 4 {
				t.Fatalf("r%d owned by out-of-range worker %d", ent.Reg, o)
			}
		}
	}
}
