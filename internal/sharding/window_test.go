package sharding

import (
	"fmt"
	"math/rand"
	"testing"

	"mp5/internal/ir"
)

// fullScanPick is Figure 6's choice computed from scratch: per-pipeline sums
// over the whole array, then the largest count under half the gap on the
// heaviest pipeline among the quiescent indices (ties by lowest index). The
// reference Window.Pick is held to.
func fullScanPick(owner []int, count []int64, k int, quiescent func(int) bool) (hi, lo, best int, c int64) {
	agg := make([]int64, k)
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
	c = (agg[hi] - agg[lo]) / 2
	for i, o := range owner {
		if o != hi || count[i] >= c || count[i] == 0 || !quiescent(i) {
			continue
		}
		if best < 0 || count[i] > count[best] {
			best = i
		}
	}
	return hi, lo, best, c
}

// TestPickMatchesFullScan checks the window's incremental bookkeeping — the
// per-pipeline sums and the touched-index list Touch keeps — and the picker
// against the full scan on 1,000 random windows with a random in-flight set:
// Pick must choose exactly the index the full scan picks, from its heaviest
// to its lightest pipeline, or nothing, and must ask quiescent only about
// indices on the heaviest pipeline under half the gap. Each window lives
// through fifty remaps, migrating as it goes, so a count or a sum the reset
// left behind would show in the next one.
func TestPickMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	moves := 0
	for shard := 0; shard < 20; shard++ {
		k, size := 1+rng.Intn(4), 1+rng.Intn(64)
		w := NewWindow(size, k)
		owner := make([]int, size)
		for i := range owner {
			owner[i] = rng.Intn(k)
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
				w.Touch(pos, owner[pos])
				count[pos]++
			}
			busy := make([]bool, size)
			for i := range busy {
				busy[i] = rng.Intn(4) == 0
			}
			hi, lo, best, c := fullScanPick(owner, count, k, func(i int) bool { return !busy[i] })
			idx, from, to, ok := w.Pick(owner, func(i int) bool {
				if owner[i] != hi || count[i] >= c {
					t.Fatalf("shard %d window %d: quiescent asked about index %d (pipeline %d, count %d) off H=%d or not under C=%d", shard, win, i, owner[i], count[i], hi, c)
				}
				return !busy[i]
			})
			if idx != best || ok != (best >= 0) || ok && (from != hi || to != lo) {
				t.Fatalf("shard %d window %d (k=%d): Pick = index %d %d→%d ok=%v, full scan index %d %d→%d",
					shard, win, k, idx, from, to, ok, best, hi, lo)
			}
			if ok {
				owner[idx] = to
				moves++
			}
		}
	}
	if moves < 300 {
		t.Fatalf("only %d of 1000 windows chose an index to migrate: the comparison is mostly vacuous", moves)
	}
}

// TestRemapSteadyStateAllocs holds the simulator's remap window to zero heap
// allocations: counting resolutions into the windows, Figure 6 over four
// sharded arrays, and the returned moves reuse the Map's buffers.
func TestRemapSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race (the race runtime allocates)")
	}
	p := &ir.Program{}
	for i := 0; i < 4; i++ {
		p.Regs = append(p.Regs, ir.RegInfo{Name: fmt.Sprint("r", i), Size: 64, Sharded: true, Stage: i})
	}
	m := New(p, 4, PolicyRoundRobin, 1)
	rng := rand.New(rand.NewSource(1))
	window := func() {
		for n := 0; n < 400; n++ {
			reg, idx := rng.Intn(4), rng.Intn(1+rng.Intn(64)) // skewed to low indices
			m.NoteResolved(reg, idx)
			m.NoteDone(reg, idx)
		}
		m.Remap()
	}
	for i := 0; i < 10; i++ {
		window() // grow the touched lists to their working size
	}
	before := m.Moves()
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("a remap window allocates %.2f times, want 0", allocs)
	}
	if moved := m.Moves() - before; moved < 100 {
		t.Fatalf("only %d moves over 101 windows: the gate measured little of the picker", moved)
	}
}
