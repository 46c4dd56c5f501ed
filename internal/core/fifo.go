// Package core implements the MP5 multi-pipeline switch simulator: the
// crossbar-connected pipelines, per-stage k-FIFO structures, the phantom
// channel, packet steering, and the dynamic-sharding runtime — plus the
// paper's baseline architectures (no-D4, recirculation, naive single-pipe
// state, static sharding, and the ideal upper bound).
package core

import "fmt"

// fifoEntry is one slot in a stage FIFO: either a data packet or a phantom
// placeholder awaiting its data packet (§3.2).
type fifoEntry struct {
	ts    int64   // ordering timestamp = packet arrival sequence number
	data  *Packet // nil while the entry is a phantom
	owner *Packet // packet this entry belongs to (phantom: the awaited packet)
	enq   int64   // cycle the entry was enqueued (starvation accounting)
}

func (e *fifoEntry) isPhantom() bool { return e.data == nil }

// ring is a growable ring buffer with stable sequence addressing: entry seq
// s stays addressable at the same logical position while entries ahead of
// it are popped, which is what insert() by (sub-FIFO, seq) needs. Capacity
// grows 4 → 8 → 16 …, so positions wrap with a mask.
type ring struct {
	buf     []fifoEntry
	start   int   // position of headSeq in buf
	n       int   // live entries
	headSeq int64 // sequence number of the head entry
}

func (r *ring) len() int { return r.n }

func (r *ring) posOf(seq int64) int {
	off := int(seq - r.headSeq)
	if off < 0 || off >= r.n {
		panic(fmt.Sprintf("core: fifo seq %d outside [%d,%d)", seq, r.headSeq, r.headSeq+int64(r.n)))
	}
	return r.wrap(r.start + off)
}

// wrap maps a position past the end of buf back into it (len(buf) is a
// power of two).
func (r *ring) wrap(i int) int { return i & (len(r.buf) - 1) }

// at returns the entry stored at sequence seq.
func (r *ring) at(seq int64) *fifoEntry { return &r.buf[r.posOf(seq)] }

func (r *ring) head() *fifoEntry {
	if r.n == 0 {
		panic("core: head of empty fifo")
	}
	return &r.buf[r.start]
}

// push appends an entry and returns its sequence number.
func (r *ring) push(e fifoEntry) int64 {
	if r.n == len(r.buf) {
		grown := make([]fifoEntry, max(4, 2*len(r.buf)))
		if len(grown)&(len(grown)-1) != 0 {
			panic("core: fifo capacity is not a power of two")
		}
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[r.wrap(r.start+i)]
		}
		r.buf = grown
		r.start = 0
	}
	seq := r.headSeq + int64(r.n)
	r.buf[r.wrap(r.start+r.n)] = e
	r.n++
	return seq
}

// popHead removes and returns the head entry.
func (r *ring) popHead() fifoEntry {
	e := *r.head()
	r.buf[r.start] = fifoEntry{}
	r.start = r.wrap(r.start + 1)
	r.n--
	r.headSeq++
	return e
}

// StageFIFO is the per-stage buffering structure of MP5 (§3.2): k physical
// ring-buffer FIFOs (one per source pipeline) operating as a single logical
// FIFO. A phantom's placement — its sub-FIFO and sequence number — is kept
// by the caller (on the awaited packet's visit record), not by the FIFO.
//
//   - Push adds a data or phantom packet to the tail of one sub-FIFO,
//     dropping it when the sub-FIFO is at capacity.
//   - Insert replaces a phantom, addressed by the (sub-FIFO, seq) its push
//     returned, with its data packet.
//   - Pop inspects the k heads and selects the smallest timestamp; a
//     phantom head blocks (returns blocked=true) so that later packets
//     cannot overtake the awaited one.
type StageFIFO struct {
	rings []ring
	cap   int // per-sub-FIFO capacity; 0 = unbounded
	depth int // current total entries
	maxD  int // high-water mark
}

// NewStageFIFO builds a k-FIFO with the given per-sub-FIFO capacity
// (0 = unbounded, the paper's adaptive sizing for loss-free sensitivity
// experiments).
func NewStageFIFO(k, capacity int) *StageFIFO {
	return &StageFIFO{
		rings: make([]ring, k),
		cap:   capacity,
	}
}

// Len returns the total number of queued entries (data + phantom).
func (f *StageFIFO) Len() int { return f.depth }

// MaxDepth returns the high-water mark of total queued entries.
func (f *StageFIFO) MaxDepth() int { return f.maxD }

func (f *StageFIFO) bump(d int) {
	f.depth += d
	if f.depth > f.maxD {
		f.maxD = f.depth
	}
}

// PushPhantom enqueues a phantom for packet p arriving from srcPipe and
// returns its sequence number in sub-FIFO srcPipe. ok is false (drop) when
// the sub-FIFO is full.
func (f *StageFIFO) PushPhantom(srcPipe int, p *Packet, now int64) (seq int64, ok bool) {
	r := &f.rings[srcPipe]
	if f.cap > 0 && r.len() >= f.cap {
		return 0, false
	}
	seq = r.push(fifoEntry{ts: p.ID, owner: p, enq: now})
	f.bump(1)
	return seq, true
}

// PushData enqueues a data packet directly (used by the no-D4 baseline,
// which has no phantoms). Returns false (drop) when the sub-FIFO is full.
func (f *StageFIFO) PushData(srcPipe int, p *Packet, now int64) bool {
	r := &f.rings[srcPipe]
	if f.cap > 0 && r.len() >= f.cap {
		return false
	}
	r.push(fifoEntry{ts: p.ID, data: p, owner: p, enq: now})
	f.bump(1)
	return true
}

// Insert replaces packet p's phantom, pushed at (fifo, seq), with p itself.
func (f *StageFIFO) Insert(fifo int, seq int64, p *Packet, now int64) {
	e := f.rings[fifo].at(seq)
	if !e.isPhantom() || e.owner != p {
		panic("core: insert position does not hold the packet's phantom")
	}
	e.data = p
	e.enq = now
}

// Head returns the entry with the smallest timestamp among the k sub-FIFO
// heads, along with its sub-FIFO index. ok is false when all sub-FIFOs are
// empty.
func (f *StageFIFO) Head() (e *fifoEntry, fifo int, ok bool) {
	for i := range f.rings {
		r := &f.rings[i]
		if r.len() == 0 {
			continue
		}
		h := r.head()
		if !ok || h.ts < e.ts {
			e, fifo, ok = h, i, true
		}
	}
	return e, fifo, ok
}

// PopHead removes the head of the given sub-FIFO (after the caller selected
// it via Head) and returns the entry.
func (f *StageFIFO) PopHead(fifo int) fifoEntry {
	e := f.rings[fifo].popHead()
	f.bump(-1)
	return e
}
