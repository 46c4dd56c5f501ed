package dataplane

import "sync/atomic"

// slotState is the ticket lock of one slot, the unit of state placement: a
// single index of a sharded register array, or a whole unsharded array
// (the sharding map's array-level placement). It is the execution-engine
// form of the paper's phantom placeholders (D4). The admitter is serial,
// so a position in the slot's order is just a number: issue stamps
// consecutive tickets in admission order, and the owning worker serves
// them in that order, one access each. Nothing here is locked; every field
// has exactly one writer:
//
//	issued        the admitter
//	served, wait  the slot's owning worker (and its log row, regShard.log)
//
// The two halves sit on separate cache lines, so the admitter's issue and
// the owner's pop never contend for one: the struct is 128 bytes, handles
// allocate slots in arrays, and the allocator starts those at most a malloc
// header (8 bytes) past a 64-byte boundary, which the tail padding absorbs
// (TestSlotLayout checks the arrays themselves).
//
// Ownership changes only in remap, and only at issued == served. That works
// without a lock because of the last-touch rule: the served store in pop is
// the owner's last touch of the slot for that ticket — the register write,
// the log append and the wait-ring read-and-clear all precede it — so the
// admitter's acquire-load of served, followed by the mailbox send of the
// next ticket's packet, carries the register value, the log and the ring to
// the new owner.
type slotState struct {
	issued atomic.Uint64
	_      [56]byte

	served atomic.Uint64
	// wait is the park bench: a power-of-two ring holding, at tk&mask, the
	// packet parked on this slot with ticket tk. Parked tickets lie in
	// (served, served+len(wait)); park grows the ring to keep that true, so
	// it never exceeds twice the tickets outstanding — at most one per
	// in-flight packet (a register array lives in one stage), hence bounded
	// by Window.
	wait []*packet
	_    [32]byte
}

// issue stamps the next ticket (admitter only). The counter is atomic only
// so TicketDepths may read it from a sampler goroutine.
func (s *slotState) issue() uint64 { return s.issued.Add(1) - 1 }

// depth returns the tickets issued but not yet served (any goroutine).
// served is read first: it never passes issued, so the difference of a
// later issued and an earlier served cannot go negative.
func (s *slotState) depth() int64 {
	sv := s.served.Load()
	return int64(s.issued.Load() - sv)
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
	s.served.Store(tk + 1) // last touch: after this the slot may change owner
	return next
}
