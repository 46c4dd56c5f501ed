package dataplane

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"mp5/internal/ir"
	"mp5/internal/stats"
	"mp5/internal/telemetry"
)

// packet is one in-flight packet: its execution environment, its resolved
// visit plan, and its progress through the stage sequence. A packet is
// owned by exactly one goroutine at a time (the admitter, then the baton
// holder of whichever pipeline's driver holds it), handed off over mailbox
// channels or the baton — so none of its fields need locking.
type packet struct {
	id int64
	// h is the handle (program namespace) the packet was admitted under:
	// workers reach the program, its VM, its per-worker register files, and its
	// quota exclusively through the packet, so mixed-tenant traffic needs no
	// per-worker program lookup and the mailbox handoff publishes a
	// freshly-added handle to the worker (hot swap).
	h   *Handle
	env *ir.Env
	// visits is the admission-time resolution of every stateful stage the
	// packet will visit; vi indexes the next unperformed one.
	visits []visit
	vi     int
	// nextStage is the next stage to execute (resolution stages already
	// ran on the admitter).
	nextStage int
	// pipe is the pipeline the packet is on: its first hop (set at
	// dispatch), then the owner of each visit it reaches.
	pipe  int
	start time.Time
	// span is the packet's wire-to-wire trace (nil for unsampled packets).
	// Packet-owned like every other field, so stamps never lock.
	span *Span
	// tag is the submitter's opaque completion cookie, handed back through
	// Config.OnEgress.
	tag uint64
}

// visit is one resolved stateful stage visit: the stage, the worker owning
// every slot the stage may touch, and the packet's ticket on each slot.
type visit struct {
	stage int
	pipe  int
	slots []slotRef
}

// slotRef is one ticket: the owner half of the slot's ticket lock (all a
// worker tests, parks on and pops) and the position tk the admitter stamped
// at resolve time.
type slotRef struct {
	st *slotState
	tk uint64
}

// xbarMsg is one crossbar transfer to the driver of pipeline to, the first
// packet's (each packet starts on its own packet.pipe): always a batch —
// an admission chunk's run for one driver (SubmitBatchTo, one packet long
// under Submit) or a driver's steers to one pipeline of another. A batch is
// one queued message for many packets, so coalescing only strengthens the
// mailboxes-never-fill invariant.
type xbarMsg struct {
	to    *worker
	batch *pktBatch
}

// pktBatch is the recycled carrier behind coalesced sends (see
// Engine.getBatch/putBatch).
type pktBatch struct {
	items []*packet
}

// egRec is one worker-private egress record: seq is drawn from the
// engine's global atomic counter at egress time, so sorting the merged
// records by seq reconstructs the wall-clock egress order without a
// global lock on the egress path.
type egRec struct {
	seq int64
	id  int64
}

// doneCap bounds the egressed packets (and window tokens) finish waits for.
const doneCap = 64

// driver is one goroutine stepping one or more pipelines: pipelines are units
// of state placement and ordering (D2, D3, D4), not of scheduling. NewMulti
// builds min(k, GOMAXPROCS-1) drivers — a P each, plus one for the admitter —
// and deals pipeline i to driver i mod m, so a host with the Ps runs one
// goroutine per pipeline and a host without them is not oversubscribed.
//
// Only the holder of the driver's baton steps it, so everything a step
// touches — the mailbox's read side, runnable, xout, the pipelines' done and
// tallies, the wait rings and register words of the slots they own — passes
// between holders through the baton's CAS (acquire) and store
// (release). With several drivers the goroutine is the only holder. With one
// (Engine.solo), the admitter claims it wherever it would wait on the driver,
// steps the driver itself instead of sleeping on a full window, and keeps it
// until it leaves the engine; the goroutine steps what the admitter leaves in
// flight, between calls and during small ones.
type driver struct {
	e       *Engine
	pipes   []*worker
	mailbox chan xbarMsg
	// runnable holds packets promoted by a pop, drained before handle returns.
	runnable []*packet
	// xout accumulates steers to other drivers per destination pipeline
	// while the driver has messages to step; xoutPend lists the dirty
	// destinations in first-touch order. Flushed (one batch per destination)
	// whenever the driver runs dry, so always before it blocks: a buffered
	// packet another driver needs is never stranded.
	xout     []*pktBatch
	xoutPend []int
	// baton is held by whoever steps the driver; want is the admitter asking
	// the goroutine to hand it over; kick wakes the goroutine (one slot, so a
	// wake sent while it runs is kept, never lost).
	baton atomic.Bool
	want  atomic.Bool
	kick  chan struct{}
}

// run is the goroutine's shell around step: take the baton, step while it
// progresses and the admitter does not want the baton, drop it (waking the
// admitter if it does), then sleep until kicked or the engine shuts down.
// Abort is checked between steps too, so a driver that never runs dry still
// dies with the engine. No wakeup is lost: every mailbox send is followed by a
// kick (from an admitter holding the baton, by its leave), and a kick that
// arrives while the goroutine is stepping stays in the channel.
func (d *driver) run() {
	e := d.e
	defer e.wg.Done()
	for {
		if d.baton.CompareAndSwap(false, true) {
			for !d.want.Load() && !e.aborted() && d.step() {
			}
			d.baton.Store(false)
			if d.want.Load() {
				e.signalWindow()
			}
		}
		select {
		case <-d.kick:
		case <-e.quit:
			return
		case <-e.abort:
			return
		}
	}
}

// wake kicks the driver's goroutine.
func (d *driver) wake() {
	select {
	case d.kick <- struct{}{}:
	default: // a kick is already pending; one is enough
	}
}

// step makes progress without blocking, or reports that it could not (baton
// holder only): handle one mailbox message, letting steers pile into xout
// (queued messages are bounded by the window, so this cannot starve the
// flush); or, the mailbox dry, flush the steers — their holders may be the
// only packets able to make progress.
func (d *driver) step() bool {
	select {
	case m := <-d.mailbox:
		m.to.inbox.Add(-1)
		d.handle(m)
		return true
	default:
	}
	d.flushSteers()
	return false
}

// worker is one logical pipeline, stepped by its driver d. For every loaded
// handle it owns one private register file (h.wregs[w.id]) — only the
// indices the handle's sharding map assigns to it hold the live copy. A
// packet that reaches its visit before its tickets are served parks in the
// blocking slot's own wait ring; all ticket tests, parks and pops of a slot
// happen on the slot's owning pipeline, so the park-or-proceed decision and
// the promotion after a pop are serialized on one goroutine and cannot lose
// a wakeup. Program state (stages, bytecode, VM, register files) is reached
// through p.h, never stored on the worker: a worker is pure topology.
type worker struct {
	id int
	e  *Engine
	d  *driver
	// done holds egressed packets until finish completes them as one burst.
	done []*packet
	// outs collects egress outputs worker-privately (merged by
	// Engine.Outputs after the join; nil unless Config.RecordOutputs);
	// egRecs collects (seq, id) egress records merged into the global order
	// at Drain. Both replace the old engine-wide egress mutex.
	outs   map[int64][]int64
	egRecs []egRec
	// hit is the current visit's coverage: bit i is set once an access
	// the stage performs is covered by ticket i. touched lists the log rows
	// of the distinct indices the visit touched, kept only when the engine
	// records access order. Both grow to the widest visit seen, then stop
	// allocating.
	hit     []uint64
	touched []*[]int64
	// obs is the access observer bound once at construction (a fresh
	// closure per visit would put one heap allocation back on the hot
	// path); obsP/obsV carry the current visit's context to it.
	obs  func(reg int, idx int64, write bool)
	obsP *packet
	obsV *visit
	// lat is the worker-private latency histogram, merged by the engine
	// after the goroutine joins (the share-nothing stats.Histogram
	// pattern).
	lat *stats.Histogram
	// steers, parks, wasted, processed and parkedDelta tally events since
	// the last publish: plain fields on the hot path, added to the shared
	// engine and telemetry counters (and processedN, parkedN) once per
	// handled message.
	steers, parks, wasted, processed, parkedDelta int64
	// Live occupancy counters for WorkerStats: messages queued in the
	// driver's mailbox that start on this pipeline, parked packets,
	// arrivals, egresses, and (tracer-gated) busy wall time.
	inbox      atomic.Int64
	parkedN    atomic.Int64
	processedN atomic.Int64
	egressedN  atomic.Int64
	busyNs     atomic.Int64
}

func newWorker(e *Engine, id int, d *driver) *worker {
	w := &worker{
		id:  id,
		e:   e,
		d:   d,
		lat: stats.NewHistogram(latLo, latHi, latBuckets),
	}
	if e.cfg.RecordOutputs {
		w.outs = make(map[int64][]int64)
	}
	w.obs = w.observe
	return w
}

// handle is the driver's unit of work: one transfer — a coalesced batch in
// order (an admission chunk or a steer flush) — then every packet its pops
// promoted, then the bookkeeping of every pipeline of the driver, since a
// packet can egress, park or be promoted on any of them.
// With a Tracer attached it also accounts busy time, to the message's
// pipeline: one clock pair per message, whoever holds the baton.
func (d *driver) handle(m xbarMsg) {
	e := d.e
	var t0 time.Time
	if e.trc != nil {
		t0 = time.Now()
	}
	for _, p := range m.batch.items {
		d.process(p, StageCrossbar)
	}
	e.putBatch(m.batch)
	for n := len(d.runnable); n > 0; n = len(d.runnable) {
		p := d.runnable[n-1]
		d.runnable = d.runnable[:n-1]
		d.process(p, StageTicketWait)
	}
	for _, w := range d.pipes {
		w.publish()
	}
	if e.trc != nil {
		m.to.busyNs.Add(time.Since(t0).Nanoseconds())
	}
}

// bufferSteer parks a steer to p.pipe in the per-destination batch instead of
// paying a channel send (and a scheduler wakeup) per packet; flushSteers
// delivers every dirty destination's batch in one send each.
func (d *driver) bufferSteer(p *packet) {
	b := d.xout[p.pipe]
	if b == nil {
		b = d.e.getBatch()
		d.xout[p.pipe] = b
		d.xoutPend = append(d.xoutPend, p.pipe)
	}
	b.items = append(b.items, p)
}

// flushSteers delivers every buffered steer batch over its destination
// driver's mailbox, in first-touch order. On abort the engine is being torn
// down — the remaining batches are abandoned like any other in-flight packet.
func (d *driver) flushSteers() {
	for _, dst := range d.xoutPend {
		m := xbarMsg{to: d.e.workers[dst], batch: d.xout[dst]}
		d.xout[dst] = nil
		if !d.e.send(m) {
			return
		}
	}
	d.xoutPend = d.xoutPend[:0]
}

// publish finishes the egressed burst and adds the event tallies to the
// shared counters: one atomic add per counter that moved, not one per event.
func (w *worker) publish() {
	e := w.e
	w.finish()
	publishTally(&w.steers, &e.steers, e.met.Steers)
	publishTally(&w.parks, &e.parks, e.met.Parks)
	publishTally(&w.wasted, &e.wasted, e.met.Wasted)
	publishTally(&w.processed, &w.processedN, nil)
	publishTally(&w.parkedDelta, &w.parkedN, nil)
}

func publishTally(n *int64, total *atomic.Int64, met *telemetry.Counter) {
	if *n != 0 {
		total.Add(*n)
		met.Add(*n) // nil-safe
		*n = 0
	}
}

// process advances the packet from its pipeline p.pipe as far as this driver
// can take it: stateless stages execute inline; a visit stage either hops to
// the owning pipeline (D3: in place on this driver, by steer to another),
// parks on the first slot whose ticket is not yet served (D4), or executes.
// Reaching the last stage egresses the packet. since names the span segment
// ending here: the crossbar hop for a packet off a transfer, the D4 wait for
// a promoted one.
func (d *driver) process(p *packet, since TraceStage) {
	e := d.e
	w := e.workers[p.pipe]
	w.processed++
	if p.span != nil {
		p.span.Advance(since, w.id)
	}
	h := p.h
	regs := h.wregs[w.id]
	for p.nextStage < len(h.prog.Stages) {
		var v *visit
		if p.vi < len(p.visits) && p.visits[p.vi].stage == p.nextStage {
			v = &p.visits[p.vi]
		}
		if v == nil {
			// No ticket here: any stateful instruction in this stage has a
			// (resolution-time) false predicate, so executing the stage
			// touches only the packet environment and read-only tables.
			if err := h.vm.ExecStage(&h.bc.Stages[p.nextStage], p.env, regs); err != nil {
				panic("dataplane: " + err.Error()) // envs are h.prog-shaped
			}
			p.nextStage++
			continue
		}
		if v.pipe != w.id {
			w.steers++
			if p.span != nil {
				// Close the exec segment at the hop. After a steer the
				// receiving driver stamps the crossbar hop (which includes
				// any time the packet waits in the coalescing buffer).
				p.span.Advance(StageExec, w.id)
			}
			p.pipe = v.pipe
			if w = e.workers[v.pipe]; w.d != d {
				d.bufferSteer(p)
				return
			}
			w.processed++ // an in-place hop: same driver, other register file
			regs = h.wregs[w.id]
			continue
		}
		if ref := blocked(v); ref != nil {
			// Parked on one slot at a time: the promotion re-tests every
			// ticket of the visit and re-parks on the next laggard.
			ref.st.park(ref.tk, p)
			w.parks++
			w.parkedDelta++
			if p.span != nil {
				// Close the exec segment; the promotion stamp turns the
				// parked time into a ticket_wait segment.
				p.span.Advance(StageExec, w.id)
			}
			return
		}
		if f := e.testBeforeExec; f != nil {
			f(p)
		}
		w.execVisit(p, v)
		p.vi++
		p.nextStage++
	}
	w.egress(p)
}

// observe is the access observer execVisit attaches to an observed stage
// execution (via the once-bound w.obs); its context arrives through
// obsP/obsV.
func (w *worker) observe(reg int, idx int64, write bool) {
	w.cover(w.obsP, w.obsV, reg, idx)
}

// cover checks one concrete register access of packet p against its
// visit's tickets — it panics when no ticket covers it — and sets the
// covering ticket's bit in w.hit. A ticket covers exactly the accesses to
// its slot, so the check compares slot pointers. When the engine records
// access order it also notes the index's log row in w.touched, once.
func (w *worker) cover(p *packet, v *visit, reg int, idx int64) {
	sh := &p.h.shard[reg]
	ci := ir.ClampIndex(int(idx), sh.size)
	st := sh.slots[0]
	if sh.sharded {
		st = sh.slots[ci]
	}
	for i := range v.slots {
		if v.slots[i].st != st {
			continue
		}
		w.hit[i>>6] |= 1 << (i & 63)
		if p.h.log != nil {
			if row := p.h.log.Slot(reg, ci); !slices.Contains(w.touched, row) {
				w.touched = append(w.touched, row)
			}
		}
		return
	}
	panic(fmt.Sprintf("dataplane: packet %d accessed r%d[%d] in stage %d without a ticket",
		p.id, reg, ci, v.stage))
}

// blocked returns the first ticket of the visit that is not being served
// yet, or nil when the packet may execute. Safe only on the visit's owning
// worker.
func blocked(v *visit) *slotRef {
	for i := range v.slots {
		if ref := &v.slots[i]; ref.st.served.Load() != ref.tk {
			return ref
		}
	}
	return nil
}

// execVisit runs the visit's stage in one pass over its tickets. First the
// coverage check: every register access the stage performs must be covered
// by one of the visit's tickets, and sets that ticket's bit (predicates
// evaluate live, so a conservative ticket may cover nothing — a wasted
// visit). A stable stage (bytecode.StageProgram.Stable) is checked up front,
// from the frame at stage entry, before any register is touched, and then
// runs unobserved; any other stage runs with the access observer attached.
// Then one loop counts every ticket whose bit is unset as a wasted visit,
// retires each ticket, and promotes the packet parked on the slot's next
// one, if any. Access order, when recorded, is logged before the pops.
func (w *worker) execVisit(p *packet, v *visit) {
	h := p.h
	sp := &h.bc.Stages[v.stage]
	if err := sp.Fit(p.env); err != nil {
		panic("dataplane: " + err.Error()) // envs are h.prog-shaped
	}
	words := (len(v.slots) + 63) >> 6
	if len(w.hit) < words {
		w.hit = make([]uint64, words)
	}
	for i := 0; i < words; i++ { // not clear(), a call, for what is nearly always one word
		w.hit[i] = 0
	}
	w.touched = w.touched[:0]
	frame := p.env.Frame
	upFront := sp.Stable()
	if f := w.e.testExecPath; f != nil {
		upFront = f(v.stage, upFront)
	}
	var obs ir.AccessObserver
	if upFront {
		sites := sp.Sites()
		for i := range sites {
			if s := &sites[i]; s.Held(frame) {
				w.cover(p, v, s.Reg, frame[s.Idx])
			}
		}
	} else {
		w.obsP, w.obsV, obs = p, v, w.obs
	}
	h.vm.Run(sp, frame, h.wregs[w.id], obs)
	for _, row := range w.touched {
		*row = append(*row, p.id)
	}
	for i := range v.slots {
		if w.hit[i>>6]&(1<<(i&63)) == 0 {
			w.wasted++
		}
		ref := &v.slots[i]
		if q := ref.st.pop(ref.tk); q != nil {
			w.parkedDelta--
			w.d.runnable = append(w.d.runnable, q)
		}
	}
}

// egress does the packet's own part of completing: record outputs and egress
// order (both into worker-private shards — no lock on the egress path),
// return the quota token, notify the OnEgress hook, close the span. The part
// that is the same for every packet is paid per burst, in finish.
func (w *worker) egress(p *packet) {
	e := w.e
	if p.span != nil {
		// Close the final exec segment; everything from here to the
		// finish — output recording and the OnEgress hook (the TCP ack
		// enqueue on the server path) — is the egress segment.
		p.span.Advance(StageExec, w.id)
	}
	if w.outs != nil {
		w.outs[p.id] = append([]int64(nil), p.env.Fields...)
	}
	if e.cfg.RecordEgressOrder {
		w.egRecs = append(w.egRecs, egRec{seq: e.egSeq.Add(1), id: p.id})
	}
	// The quota token goes back before the hook announces the egress: a
	// submitter that keeps no more in flight than its quota (a wire client
	// whose window equals it) may send the next packet the moment it hears
	// of this one, and that packet must not be shed against a token this
	// one still holds. (The quota is only a count; nothing reuses storage
	// on it, unlike the window token.)
	if q := p.h.quota; q != nil {
		q.release(1)
	}
	if f := e.cfg.OnEgress; f != nil {
		f(p.id, p.tag)
	}
	if p.span != nil {
		p.span.Advance(StageEgress, w.id)
		e.trc.finish(p.span)
		p.span = nil // the tracer owns (and recycles) the span now
	}
	if w.done = append(w.done, p); len(w.done) == doneCap {
		w.finish()
	}
}

// finish completes the burst of egressed packets; every observer (outputs
// copy, access log, egress record, span, OnEgress) is done with them. One
// clock read stamps their latencies after the last egress, as the admit stamp
// precedes the chunk's first prepare: batching can only over-report. Then
// recycle, one lock per run of one handle's packets, and only then return the
// window tokens — the admitter may reuse an id slot only once its packet is on
// the free list. Counters move last; the last packet closes the done gate.
func (w *worker) finish() {
	n := int64(len(w.done))
	if n == 0 {
		return
	}
	e := w.e
	now := time.Now()
	for i, j := 0, 0; i < len(w.done); i = j {
		h := w.done[i].h
		for ; j < len(w.done) && w.done[j].h == h; j++ {
			w.lat.Add(float64(now.Sub(w.done[j].start).Microseconds()))
		}
		h.putPackets(w.done[i:j]...)
		h.completed.Add(int64(j - i))
	}
	w.done = w.done[:0]
	e.releaseWindow(n)
	w.egressedN.Add(n)
	e.met.Egressed.Add(n)
	if c, t := e.completed.Add(n), e.total.Load(); c == t {
		e.closeDone()
	}
}
