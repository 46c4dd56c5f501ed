package screp

import (
	"runtime"
	"sync/atomic"
	"time"
)

// regWrite is one replayed register store: the final value packet seq left
// in slot (reg, idx) after its last stateful stage. Replaying final values
// is state-equivalent to replaying the packet's individual read-modify-
// writes — no other packet's stateful span can interleave (publication is
// globally serialized), so intermediate values are unobservable.
type regWrite struct {
	reg int
	idx int
	val int64
}

// deltaEntry is one ring slot: the write delta of sequence number seq is
// published by storing stamp = seq+1 (0 marks never-published) AFTER the
// writes slice is filled. The atomic stamp is the publication fence: the
// publisher's plain writes to the slice happen-before any replayer that
// acquire-loads the expected stamp, and the slice is reused in place on
// the ring's next lap — safe because the capacity proof below shows every
// replica finished reading an entry before it can be overwritten.
type deltaEntry struct {
	stamp  atomic.Int64
	writes []regWrite
}

// deltaLog is the sequence-indexed replay ring shared by all replicas.
//
// Capacity argument (why a fixed ring cannot overrun): publishing sequence
// u requires every sequence below u to be published, and a worker only
// publishes its own sequence after replaying everything below it. Round-
// robin assignment puts exactly one of any k consecutive sequence numbers
// on each worker, so when u publishes, every worker has replayed past
// u-k — the entry u-cap that u's publication overwrites (cap > k+1) was
// last needed strictly earlier on every replica, with the happens-before
// chain of stamps ordering those reads before the overwrite. replayTo
// still checks for a stamp from a later lap and panics loudly: an overrun
// would mean the invariant (hence C1) is broken, never silent corruption.
type deltaLog struct {
	entries []deltaEntry
	mask    int64
}

// newDeltaLog sizes the ring: a power of two at least max(256, 4k).
func newDeltaLog(k int) *deltaLog {
	need := 4 * k
	if need < 256 {
		need = 256
	}
	capPow := 1
	for capPow < need {
		capPow <<= 1
	}
	return &deltaLog{entries: make([]deltaEntry, capPow), mask: int64(capPow - 1)}
}

// publish places seq's write delta on the ring. Called only by the worker
// that executed seq, after it replayed every earlier delta — the global
// serialization point.
func (l *deltaLog) publish(seq int64, writes []regWrite) {
	en := &l.entries[seq&l.mask]
	en.writes = append(en.writes[:0], writes...)
	en.stamp.Store(seq + 1)
}

// replaySpins is how many failed stamp polls a replayer tolerates between
// abort checks; past replaySleepAfter it backs off with a short sleep so a
// wedged publisher (or a watchdog-bound stall) does not burn a core.
const (
	replaySpins      = 1 << 10
	replaySleepAfter = 1 << 16
)

// waitFor blocks until seq's delta is published, returning its entry, or
// nil when the engine aborted while waiting.
func (l *deltaLog) waitFor(seq int64, abort <-chan struct{}) *deltaEntry {
	en := &l.entries[seq&l.mask]
	want := seq + 1
	if st := en.stamp.Load(); st == want {
		return en
	} else if st > want {
		panic("screp: delta log overrun (ring capacity invariant broken)")
	}
	for spins := 1; ; spins++ {
		st := en.stamp.Load()
		if st == want {
			return en
		}
		if st > want {
			panic("screp: delta log overrun (ring capacity invariant broken)")
		}
		if spins%replaySpins == 0 {
			select {
			case <-abort:
				return nil
			default:
			}
			if spins >= replaySleepAfter {
				time.Sleep(50 * time.Microsecond)
				continue
			}
		}
		runtime.Gosched()
	}
}
