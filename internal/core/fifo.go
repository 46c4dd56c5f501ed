// Package core implements the MP5 multi-pipeline switch simulator: the
// crossbar-connected pipelines, per-stage k-FIFO structures, the phantom
// channel, packet steering, and the dynamic-sharding runtime — plus the
// paper's baseline architectures (no-D4, recirculation, naive single-pipe
// state, static sharding, and the ideal upper bound).
package core

// fifoEntry is one slot in a stage FIFO: packet p's data or, until the
// packet is inserted over it, its phantom placeholder (§3.2).
type fifoEntry struct {
	ts   int64 // ordering timestamp = packet arrival sequence number
	enq  int64 // cycle the entry was enqueued (starvation accounting)
	p    pkt   // the packet (a phantom's: the awaited packet)
	data bool  // false while the entry is a phantom
}

// blockLen is the entry count of one FIFO block (a power of two).
const blockLen = 32

// blockPool holds every stage FIFO's entries in blocks of blockLen,
// addressed by flat position (block*blockLen + offset). A sub-FIFO takes a
// block as its tail enters one and returns its head block once popped past
// it, so the pool holds the peak of queued entries, not each sub-FIFO's
// own peak; a position stays valid while its entry is queued.
type blockPool struct {
	entries []fifoEntry
	next    []int32 // next[b]: the block after b in its sub-FIFO
	free    []int32
}

func (bp *blockPool) get() int32 {
	if n := len(bp.free); n > 0 {
		b := bp.free[n-1]
		bp.free = bp.free[:n-1]
		return b
	}
	b := int32(len(bp.next))
	bp.next = extend(bp.next, 1)
	bp.entries = extend(bp.entries, blockLen)
	return b
}

// ring is one sub-FIFO: the chain of pool blocks from first to last holds
// sequence numbers headSeq to headSeq+n-1, sequence s at offset s mod
// blockLen. An emptied ring keeps a partly used head block, which its next
// push continues; a fully popped block has gone back to the pool.
type ring struct {
	pool        *blockPool
	first, last int32
	headSeq     int64
	n           int
}

func (r *ring) len() int { return r.n }

func (r *ring) head() *fifoEntry {
	if r.n == 0 {
		panic("core: head of empty fifo")
	}
	return &r.pool.entries[r.first*blockLen+int32(r.headSeq&(blockLen-1))]
}

// push appends an entry and returns its position in the pool.
func (r *ring) push(e fifoEntry) int32 {
	off := int32((r.headSeq + int64(r.n)) & (blockLen - 1))
	if off == 0 {
		b := r.pool.get()
		if r.n == 0 {
			r.first = b
		} else {
			r.pool.next[r.last] = b
		}
		r.last = b
	}
	pos := r.last*blockLen + off
	r.pool.entries[pos] = e
	r.n++
	return pos
}

// popHead removes and returns the head entry.
func (r *ring) popHead() fifoEntry {
	e := *r.head()
	r.n--
	r.headSeq++
	if r.headSeq&(blockLen-1) == 0 {
		b := r.first
		r.first = r.pool.next[b]
		r.pool.free = append(r.pool.free, b)
	}
	return e
}

// stageFIFO is the per-stage buffering structure of MP5 (§3.2): k physical
// FIFOs (one per source pipeline) operating as a single logical FIFO. A
// phantom's placement — the position its push returned — is kept by the
// caller (on the awaited packet's visit record), not by the FIFO.
//
//   - push adds a data or phantom entry to the tail of one sub-FIFO,
//     dropping it when the sub-FIFO is at capacity.
//   - insert replaces a phantom, addressed by its position, with its data
//     packet.
//   - head inspects the k heads and selects the smallest timestamp; the
//     caller must not pop a phantom head that is still awaited, so that
//     later packets cannot overtake it.
//
// blocked is the caller's mark that the head is an awaited phantom: every
// push and insert clears it, and the caller clears it when an awaited
// packet dies.
type stageFIFO struct {
	pool    *blockPool
	rings   []ring
	cap     int // per-sub-FIFO capacity; 0 = unbounded
	depth   int // current total entries
	maxD    int // high-water mark
	blocked bool
}

// newStageFIFO builds a k-FIFO with the given per-sub-FIFO capacity
// (0 = unbounded, the paper's adaptive sizing for loss-free sensitivity
// experiments) whose entries live in pool.
func newStageFIFO(k, capacity int, pool *blockPool) *stageFIFO {
	f := &stageFIFO{pool: pool, rings: make([]ring, k), cap: capacity}
	for i := range f.rings {
		f.rings[i].pool = pool
	}
	return f
}

// len returns the total number of queued entries (data + phantom).
func (f *stageFIFO) len() int { return f.depth }

// maxDepth returns the high-water mark of total queued entries.
func (f *stageFIFO) maxDepth() int { return f.maxD }

func (f *stageFIFO) bump(d int) {
	f.depth += d
	if f.depth > f.maxD {
		f.maxD = f.depth
	}
}

// push enqueues e at the tail of sub-FIFO src and returns its position.
// ok is false (drop) when the sub-FIFO is full.
func (f *stageFIFO) push(src int, e fifoEntry) (pos int32, ok bool) {
	r := &f.rings[src]
	if f.cap > 0 && r.len() >= f.cap {
		return 0, false
	}
	pos = r.push(e)
	f.bump(1)
	f.blocked = false
	return pos, true
}

// insert replaces packet p's phantom, pushed at pos, with p itself.
func (f *stageFIFO) insert(pos int32, p pkt, now int64) {
	e := &f.pool.entries[pos]
	if e.data || e.p != p {
		panic("core: insert position does not hold the packet's phantom")
	}
	e.data = true
	e.enq = now
	f.blocked = false
}

// head returns the entry with the smallest timestamp among the k sub-FIFO
// heads, along with its sub-FIFO index. ok is false when all sub-FIFOs are
// empty.
func (f *stageFIFO) head() (e *fifoEntry, fifo int, ok bool) {
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

// popHead removes the head of the given sub-FIFO (after the caller selected
// it via head) and returns the entry.
func (f *stageFIFO) popHead(fifo int) fifoEntry {
	e := f.rings[fifo].popHead()
	f.bump(-1)
	return e
}
