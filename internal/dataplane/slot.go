package dataplane

import (
	"sync/atomic"
	"unsafe"
)

// slotState is the owner half of the ticket lock of one slot, the unit of
// state placement: a single index of a sharded register array, or a whole
// unsharded array (the sharding map's array-level placement). The lock is
// the execution-engine form of the paper's phantom placeholders (D4). The
// admitter is serial, so a position in the slot's order is just a number:
// issue stamps consecutive tickets in admission order from the slot's
// issued counter, and the owning pipeline serves them in that order, one
// access each. Nothing here is locked; every word has exactly one writer:
//
//	issued        the admitter (regShard.issued, the handle's admitter block)
//	served, wait  the slot's owning pipeline (and its log row, regShard.log)
//
// Placement is fixed when the handle is built, so the two halves live
// apart, laid out by writer: every array's issued counters form one dense
// row of the handle's admitter block, and each pipeline's slotStates form
// one block of its own, separated from every other block by at least a
// cache line of slack (newPlacement). No line holds words of two writers, at
// whatever offset the allocator hands out.
type slotState struct {
	served atomic.Uint64
	// wait is the park bench: a power-of-two ring holding, at tk&mask, the
	// packet parked on this slot with ticket tk. Parked tickets lie in
	// (served, served+len(wait)); park grows the ring to keep that true, so
	// it never exceeds twice the tickets outstanding — at most one per
	// in-flight packet (a register array lives in one stage), hence bounded
	// by Window.
	wait []*packet
}

// cacheLine is the cache-line size every block keeps as slack at either end.
const cacheLine = 64

// issue stamps the next ticket on slot i of the array (admitter only). The
// counter is atomic only so TicketDepths may read it from a sampler
// goroutine.
func (sh *regShard) issue(i int) uint64 { return sh.issued[i].Add(1) - 1 }

// depth returns the tickets issued on slot i but not yet served (any
// goroutine). served is read first: it never passes issued, so the
// difference of a later issued and an earlier served cannot go negative.
func (sh *regShard) depth(i int) int64 {
	sv := sh.slots[i].served.Load()
	return int64(sh.issued[i].Load() - sv)
}

// park benches p until ticket tk is served (owner only; tk is not being
// served yet).
func (s *slotState) park(tk uint64, p *packet) {
	sv := s.served.Load()
	if n := uint64(len(s.wait)); tk-sv >= n {
		if n == 0 {
			n = 4
		}
		for tk-sv >= n {
			n *= 2
		}
		grown := make([]*packet, n)
		for i := range s.wait {
			t := sv + uint64(i)
			grown[t&(n-1)] = s.wait[t&uint64(len(s.wait)-1)]
		}
		s.wait = grown
	}
	s.wait[tk&uint64(len(s.wait)-1)] = p
}

// pop retires ticket tk and returns the packet parked on ticket tk+1, or nil
// when its holder has not arrived yet. Owner only; the caller must hold the
// ticket being served.
func (s *slotState) pop(tk uint64) *packet {
	if s.served.Load() != tk {
		panic("dataplane: pop of a ticket that is not being served")
	}
	var next *packet
	if n := uint64(len(s.wait)); n > 0 {
		i := (tk + 1) & (n - 1)
		next, s.wait[i] = s.wait[i], nil
	}
	s.served.Store(tk + 1)
	return next
}

// newPlacement lays out the ticket state of a handle's arrays, whose owner
// tables are already set: one admitter block holding every array's issued
// row, and one slotState block per pipeline holding the slots it owns, array
// by array in index order. Each array's slots table points every index at
// its slot in its owner's block. Every block is carved out with a line of
// slack before and after it, so no two writers share a line.
func newPlacement(shard []regShard, k int) {
	slotPad := int(cacheLine / unsafe.Sizeof(slotState{}))
	wordPad := cacheLine / 8
	next := make([]int, k) // next free slot of each pipeline's block
	words := 0
	for r := range shard {
		for _, o := range shard[r].owner {
			next[o]++
		}
		words += len(shard[r].owner)
	}
	n := slotPad
	for o, c := range next {
		next[o] = n
		n += c + slotPad
	}
	slots := make([]slotState, n)
	issued := make([]atomic.Uint64, words+2*wordPad)[wordPad:]
	for r := range shard {
		sh := &shard[r]
		sh.issued, issued = issued[:len(sh.owner):len(sh.owner)], issued[len(sh.owner):]
		sh.slots = make([]*slotState, len(sh.owner))
		for i, o := range sh.owner {
			sh.slots[i] = &slots[next[o]]
			next[o]++
		}
	}
}
