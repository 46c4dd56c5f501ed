package dataplane

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"mp5/internal/apps"
	"mp5/internal/core"
)

// TestSlotLayout pins the two halves of a slot to separate cache lines, on
// the arrays a handle really allocates: no line the admitter writes (issued)
// may hold a byte the owning worker writes (served, wait, log), of the same
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
				hi := uintptr(unsafe.Pointer(&slots[i].log)) + unsafe.Sizeof(slots[i].log)
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
				got := s.pop(served, nil, int64(served), false)
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
			s.pop(served, nil, int64(served), false)
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
				s.pop(tk, nil, 0, false)
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

// fullScanPick is Figure 6's choice computed the way remapHandle used to:
// three passes over the whole array. The reference pick is held to.
func fullScanPick(owner []int, count []int64, k int) (lo, best int) {
	hi, agg := 0, make([]int64, k)
	for i, o := range owner {
		agg[o] += count[i]
	}
	for w := 1; w < k; w++ {
		if agg[w] > agg[hi] {
			hi = w
		}
		if agg[w] < agg[lo] {
			lo = w
		}
	}
	best = -1
	if hi != lo && agg[hi] != agg[lo] {
		c := (agg[hi] - agg[lo]) / 2
		for i, o := range owner {
			if o != hi || count[i] >= c || count[i] == 0 {
				continue
			}
			if best < 0 || count[i] > count[best] {
				best = i
			}
		}
	}
	return lo, best
}

// TestRemapMatchesFullScan checks the incremental remap bookkeeping — the
// per-owner sums and the touched-index list resolve keeps — against the full
// scan on 1,000 random windows: remapHandle must move exactly the index the
// full scan picks (ties by lowest index), from its heaviest to its lightest
// worker, or nothing. Each shard lives through fifty windows, migrating as it
// goes, so a count or a sum the reset left behind would show in the next one.
func TestRemapMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	moves := 0
	for shard := 0; shard < 20; shard++ {
		k, size := 1+rng.Intn(4), 1+rng.Intn(64)
		prog, err := apps.Synthetic(1, size, 16)
		if err != nil {
			t.Fatal(err)
		}
		e := New(prog, Config{Workers: k}) // never started: every slot stays fully served
		sh := &e.def.shard[0]
		for i := range sh.owner {
			sh.owner[i] = rng.Intn(k)
		}
		for win := 0; win < 50; win++ {
			// A few hot indices over a uniform background, so that windows
			// with ties, with no candidate under half the gap and with no
			// gap at all occur. The full scan reads the test's own tally.
			count := make([]int64, size)
			hot := []int{rng.Intn(size), rng.Intn(size), rng.Intn(size)}
			for n := rng.Intn(256); n > 0; n-- {
				pos := hot[n%len(hot)]
				if rng.Intn(3) == 0 {
					pos = rng.Intn(size)
				}
				sh.touch(pos)
				count[pos]++
			}
			lo, best := fullScanPick(sh.owner, count, k)
			want := append([]int(nil), sh.owner...)
			if best >= 0 {
				want[best] = lo
				moves++
			}
			e.remapHandle(e.def)
			if !reflect.DeepEqual(sh.owner, want) {
				t.Fatalf("shard %d window %d (k=%d): full scan moves index %d to worker %d\nwant owners %v\ngot         %v",
					shard, win, k, best, lo, want, sh.owner)
			}
		}
	}
	if moves < 300 {
		t.Fatalf("only %d of 1000 windows chose an index to migrate: the comparison is mostly vacuous", moves)
	}
}
