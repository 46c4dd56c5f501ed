package dataplane

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"unsafe"

	"mp5/internal/apps"
	"mp5/internal/ir"
)

// TestSlotLayout pins ticket state to lines of one writer each, on the
// blocks a handle really allocates, at k = 1..4 pipelines with round-robin
// and seeded placement: no line holding an admitter-written issued counter
// holds a word a pipeline writes (served, wait), and no line holds words of
// two pipelines. newPlacement's slack lines make this hold at any allocator
// offset; the test checks the offsets this run got.
func TestSlotLayout(t *testing.T) {
	const line = 64
	progs := []*ir.Program{arrayPathProgram(t)}
	for _, size := range []int{1, 3, 8, 13, 64, 100, 512} {
		prog, err := apps.Synthetic(2, size, 16)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for _, app := range apps.All() {
		progs = append(progs, app.MP5())
	}
	for k := 1; k <= 4; k++ {
		for _, seed := range []int64{0, 7} {
			for _, prog := range progs {
				h := New(prog, Config{Workers: k, Seed: seed}).def
				writer := map[uintptr]int{} // line -> its writer: -1 the admitter, else the pipeline
				claim := func(lo, n uintptr, who int, what string) {
					for a := lo; a < lo+n; a += 8 {
						if w, ok := writer[a/line]; ok && w != who {
							t.Fatalf("k=%d seed=%d %s: %s at %#x shares a line written by %d with writer %d", k, seed, prog.Name, what, a, w, who)
						}
						writer[a/line] = who
					}
				}
				for r := range h.shard {
					sh := &h.shard[r]
					for i := range sh.issued {
						claim(uintptr(unsafe.Pointer(&sh.issued[i])), 8, -1, fmt.Sprintf("r%d issued[%d]", r, i))
					}
					for i, st := range sh.slots {
						claim(uintptr(unsafe.Pointer(st)), unsafe.Sizeof(*st), sh.owner[i], fmt.Sprintf("r%d slot %d", r, i))
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
		sh := regShard{issued: make([]atomic.Uint64, 1), slots: []*slotState{&s}}
		holder := map[uint64]*packet{} // issued, unserved tickets
		parked := map[uint64]bool{}
		var issued, served uint64
		grew, maxRing := 0, 0
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(10); {
			case r < 4 && issued-served < 24:
				tk := sh.issue(0)
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
			if d := sh.depth(0); d != int64(issued-served) {
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
		// stale packet would be promoted again when its cell comes round.
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
