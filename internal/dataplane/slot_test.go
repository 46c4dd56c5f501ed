package dataplane

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"mp5/internal/apps"
	"mp5/internal/core"
)

// TestSlotLayout pins the two halves of a slot to separate cache lines, on
// the arrays a handle really allocates: no line the admitter writes (issued)
// may hold a byte the owning worker writes (served, wait), of the same
// slot or of a neighbour.
func TestSlotLayout(t *testing.T) {
	const line = 64
	for _, size := range []int{1, 3, 8, 13, 64, 100, 512} {
		prog, err := apps.Synthetic(1, size, 16)
		if err != nil {
			t.Fatal(err)
		}
		e := New(prog, Config{Workers: 2})
		for r := range e.def.shard {
			admitter := map[uintptr]bool{}
			slots := e.def.shard[r].slots
			for i := range slots {
				admitter[uintptr(unsafe.Pointer(&slots[i].issued))/line] = true
			}
			for i := range slots {
				lo := uintptr(unsafe.Pointer(&slots[i].served))
				hi := uintptr(unsafe.Pointer(&slots[i].wait)) + unsafe.Sizeof(slots[i].wait)
				for a := lo; a < hi; a += 8 {
					if admitter[a/line] {
						t.Fatalf("size %d: slot %d of r%d has an owner-written word at %#x on an admitter-written line", size, i, r, a)
					}
				}
			}
		}
	}
}

// TestSlotTicketRing is the seeded property test of one slot on its own:
// random interleavings of issue, out-of-order park and pop, checked against
// a plain model. pop must hand back exactly the holder of the next ticket
// when it is parked and nobody otherwise, across ring growths and many
// wrap-arounds of a ring far smaller than the ticket count.
func TestSlotTicketRing(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s slotState
		holder := map[uint64]*packet{} // issued, unserved tickets
		parked := map[uint64]bool{}
		var issued, served uint64
		grew, maxRing := 0, 0
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(10); {
			case r < 4 && issued-served < 24:
				tk := s.issue()
				if tk != issued {
					t.Fatalf("seed %d: issue returned %d, want %d", seed, tk, issued)
				}
				holder[tk] = &packet{id: int64(tk)}
				issued++
			case r < 7 && issued-served > 1:
				// Park any ticket behind the one being served, in no
				// particular order.
				tk := served + 1 + uint64(rng.Intn(int(issued-served-1)))
				if parked[tk] {
					continue
				}
				before := len(s.wait)
				s.park(tk, holder[tk])
				parked[tk] = true
				if len(s.wait) != before {
					grew++
				}
				if len(s.wait) > maxRing {
					maxRing = len(s.wait)
				}
			case issued > served:
				got := s.pop(served)
				delete(holder, served)
				served++
				want := (*packet)(nil)
				if parked[served] {
					want = holder[served]
					delete(parked, served)
				}
				if got != want {
					t.Fatalf("seed %d op %d: pop(%d) promoted %v, want %v", seed, op, served-1, got, want)
				}
			}
			if d := s.depth(); d != int64(issued-served) {
				t.Fatalf("seed %d op %d: depth %d, want %d", seed, op, d, issued-served)
			}
		}
		if grew < 3 || maxRing > 32 {
			t.Fatalf("seed %d: ring grew %d times to %d entries; want at least two growths past the first allocation, at most 32 entries", seed, grew, maxRing)
		}
		if served < 100*uint64(maxRing) {
			t.Fatalf("seed %d: only %d tickets served through a %d-entry ring", seed, served, maxRing)
		}
		// Serve the rest: a fully served slot must leave an empty ring, or a
		// handoff would carry a stale packet to the next owner.
		for ; served < issued; served++ {
			s.pop(served)
		}
		for i, p := range s.wait {
			if p != nil {
				t.Fatalf("seed %d: ring cell %d still holds packet %d after the slot drained", seed, i, p.id)
			}
		}
		for _, tk := range []uint64{served + 1, served - 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("seed %d: pop(%d) with ticket %d being served did not panic", seed, tk, served)
					}
				}()
				s.pop(tk)
			}()
		}
	}
}

// quiesce blocks the admitter until every admitted packet egressed, so the
// next remap finds every slot fully served.
func quiesce(t *testing.T, e *Engine) {
	t.Helper()
	for e.InFlight() != 0 {
		if e.Stalled() {
			t.Fatal("engine stalled while quiescing")
		}
		runtime.Gosched()
	}
}

// TestSlotHandoffBetweenOwners exercises the lock-free handoff itself: one
// hot index of the second array changes owner at every remap boundary, each
// time at quiescence, carrying its register value, its access log and its
// wait ring to the other worker with nothing but pop's served store, remap's
// acquire-load and the mailbox send in between. Under -race a missing edge
// in that chain is a reported race; the oracles catch a lost or stale value.
//
// Per window of 8 packets the hot index r1[0] takes 3 accesses and a second
// index on the same worker takes 5, the other worker none: Figure 6 then
// moves exactly r1[0] (the only index under half the gap) to the idle
// worker, and the next window mirrors it back. The first array is loaded
// evenly, so it never remaps; its accesses alternate workers so that
// consecutive r1[0] packets reach the hot slot over paths of different
// length and park behind each other. The boundary packet touches only
// never-candidate indices, so whether it is still in flight at remap time
// cannot matter.
func TestSlotHandoffBetweenOwners(t *testing.T) {
	const (
		windows  = 60
		interval = 8
	)
	prog, err := apps.Synthetic(2, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin placement: even indices start on worker 0, odd on 1.
	near := [2]int64{2, 1}  // r0 index on worker P
	heavy := [2]int64{2, 1} // r1 index on worker P, 5 accesses per window
	f0, f1 := prog.FieldIndex("h0"), prog.FieldIndex("h1")
	var arrivals []core.Arrival
	for w := 0; w < windows; w++ {
		p := w % 2 // current owner of r1[0]
		q := 1 - p
		for j, hot := range []bool{true, true, false, false, true, false, false, false} {
			h0, h1 := near[q], heavy[p]
			if j%2 == 1 {
				h0 = near[p]
			}
			if hot {
				h1 = 0
			}
			fields := make([]int64, len(prog.Fields))
			fields[f0], fields[f1] = h0, h1
			arrivals = append(arrivals, core.Arrival{Size: 64, Fields: fields})
		}
	}
	e := New(prog, Config{
		Workers: 2, RemapInterval: interval,
		RecordOutputs: true, RecordAccessOrder: true, RecordEgressOrder: true,
	})
	e.Start()
	for off := 0; off < len(arrivals); off += interval {
		if e.SubmitBatch(arrivals[off:off+interval-1], nil) != interval-1 {
			t.Fatalf("window at %d refused", off)
		}
		quiesce(t, e)
		if !e.Submit(&arrivals[off+interval-1]) { // remap runs inside
			t.Fatalf("boundary packet %d refused", off+interval-1)
		}
		if got, want := e.def.shard[1].owner[0], 1-(off/interval)%2; got != want {
			t.Fatalf("window %d: r1[0] on worker %d, want %d", off/interval, got, want)
		}
	}
	res := e.Drain()
	if res.Stalled || res.Completed != int64(len(arrivals)) {
		t.Fatalf("%d of %d completed (stalled=%v)", res.Completed, len(arrivals), res.Stalled)
	}
	if res.ShardMoves != windows {
		t.Fatalf("%d shard moves, want one per window (%d)", res.ShardMoves, windows)
	}
	checkEquivalence(t, prog, e, arrivals, 2)
	t.Logf("parks on the way: %d", res.Parks)
}

// TestRemapPassesOverBusyIndex pins the paper's rule for which index a remap
// moves: the largest count under half the gap among the indices with no
// packet in flight. The best index on the heavy worker holds a ticket no one
// has served, so the quiescent runner-up must move, value and all; when the
// busy index is the only candidate, nothing moves.
func TestRemapPassesOverBusyIndex(t *testing.T) {
	prog, err := apps.Synthetic(1, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Config{Workers: 2}) // never started; round robin: even indices on worker 0
	sh := &e.def.shard[0]
	touch := func(counts map[int]int) {
		for pos, n := range counts {
			for ; n > 0; n-- {
				sh.win.Touch(pos, sh.owner[pos])
			}
		}
	}
	sh.slots[2].issue() // index 2 has a packet in flight
	e.def.wregs[0].Array(0)[4] = 42

	// Worker 0 carries 18, worker 1 none: C = 9. Index 2 (5) is the best
	// under C, index 4 (3) the runner-up, index 0 (10) is over C.
	touch(map[int]int{0: 10, 2: 5, 4: 3})
	e.remapHandle(e.def)
	if sh.owner[2] != 0 || sh.owner[4] != 1 || e.shardMoves != 1 {
		t.Fatalf("owners of 2 and 4 = %d, %d after %d moves; want the runner-up 4 moved to worker 1", sh.owner[2], sh.owner[4], e.shardMoves)
	}
	if got := e.def.wregs[1].Array(0)[4]; got != 42 {
		t.Fatalf("moved index 4 reads %d on its new owner, want 42", got)
	}

	// Worker 0 carries 15: C = 7, and only the busy index 2 is under it.
	touch(map[int]int{0: 10, 2: 5})
	e.remapHandle(e.def)
	if sh.owner[2] != 0 || e.shardMoves != 1 {
		t.Fatalf("index 2 on worker %d after %d moves; a busy sole candidate must stay", sh.owner[2], e.shardMoves)
	}
}
