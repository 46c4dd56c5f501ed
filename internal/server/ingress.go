package server

import "sync"

// ingressQ is the bounded queue between the decode goroutines and the
// serial admitter — the explicit backpressure point in front of the
// engine's admission window. It carries slabs (one lock and one wakeup per
// burst, not per packet) but is bounded, and reports its depth, in
// *packets*: Config.IngressCap, the drop counter and the depth gauges all
// count packets, whatever the slab sizes. Producers never build a slab
// larger than the cap, so an empty queue always admits one.
type ingressQ struct {
	mu       sync.Mutex
	nonEmpty sync.Cond // the admitter waits here
	nonFull  sync.Cond // blocking producers wait here
	// slabs[head:] are the queued slabs, oldest first; the backing array is
	// reused whenever the queue runs empty or push compacts it.
	slabs   []*slab
	head    int
	depth   int // packets queued
	cap     int
	waiting int // producers blocked in push
	closed  bool
}

func newIngressQ(capPackets int) *ingressQ {
	q := &ingressQ{cap: capPackets}
	q.nonEmpty.L = &q.mu
	q.nonFull.L = &q.mu
	return q
}

// push enqueues a non-empty slab. When its packets do not fit, a blocking
// push waits for the admitter to make room (TCP always; UDP under
// PolicyBlock) and a non-blocking one returns false with the slab still the
// caller's (PolicyDrop: count and reuse it).
func (q *ingressQ) push(sl *slab, block bool) bool {
	q.mu.Lock()
	for q.depth+len(sl.arrs) > q.cap {
		if !block {
			q.mu.Unlock()
			return false
		}
		q.waiting++
		q.nonFull.Wait()
		q.waiting--
	}
	if q.head > 0 && len(q.slabs) == cap(q.slabs) {
		// Slide the live slabs down instead of growing past the popped ones.
		n := copy(q.slabs, q.slabs[q.head:])
		clear(q.slabs[n:])
		q.slabs, q.head = q.slabs[:n], 0
	}
	q.slabs = append(q.slabs, sl)
	q.depth += len(sl.arrs)
	q.mu.Unlock()
	q.nonEmpty.Signal()
	return true
}

// pop dequeues the oldest slab, blocking while the queue is empty; ok is
// false once the queue is closed and drained.
func (q *ingressQ) pop() (sl *slab, ok bool) {
	q.mu.Lock()
	for q.head == len(q.slabs) {
		if q.closed {
			q.mu.Unlock()
			return nil, false
		}
		q.nonEmpty.Wait()
	}
	sl = q.slabs[q.head]
	q.slabs[q.head] = nil
	if q.head++; q.head == len(q.slabs) {
		q.slabs, q.head = q.slabs[:0], 0
	}
	q.depth -= len(sl.arrs)
	wake := q.waiting > 0
	q.mu.Unlock()
	if wake {
		q.nonFull.Broadcast()
	}
	return sl, true
}

// close marks the end of input (every producer has exited); the admitter
// drains what is queued and then sees ok == false.
func (q *ingressQ) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nonEmpty.Signal()
}

// packets returns the queued packet count (gauges; any goroutine).
func (q *ingressQ) packets() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}
