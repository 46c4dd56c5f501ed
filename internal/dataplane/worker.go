package dataplane

import (
	"fmt"
	"sync/atomic"
	"time"

	"mp5/internal/banzai"
	"mp5/internal/ir"
	"mp5/internal/stats"
	"mp5/internal/telemetry"
)

// packet is one in-flight packet: its execution environment, its resolved
// visit plan, and its progress through the stage sequence. A packet is
// owned by exactly one goroutine at a time (the admitter, then whichever
// worker holds it), handed off over mailbox channels — so none of its
// fields need locking.
type packet struct {
	id int64
	// h is the handle (program namespace) the packet was admitted under:
	// workers reach the program, its per-worker register files/VMs, and its
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
	start     time.Time
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

// slotRef is one ticket: the slot's identity, its ticket lock (so workers
// never consult the admitter-owned placement tables), and the position tk
// the admitter stamped at resolve time.
type slotRef struct {
	key slotKey
	st  *slotState
	tk  uint64
}

// xbarMsg is one crossbar mailbox transfer: a single packet (Submit's
// dispatch) or a coalesced batch — an admission chunk's per-worker run
// (SubmitBatch) or a worker's accumulated steers for one destination,
// flushed when its mailbox runs dry. A batch occupies one mailbox slot
// for many packets, so coalescing only strengthens the
// mailboxes-never-fill invariant.
type xbarMsg struct {
	p     *packet
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

// worker is one pipeline mapped onto one goroutine. For every loaded
// handle it owns one private register file (h.wregs[w.id]) — only the
// indices the handle's sharding map assigns to it hold the live copy. A
// packet that reaches its visit before its tickets are served parks in the
// blocking slot's own wait ring; all ticket tests, parks and pops of a slot
// happen on the slot's owning worker, so the park-or-proceed decision and
// the promotion after a pop are serialized on one goroutine and cannot lose
// a wakeup. Program state (stages, bytecode, VMs, register files) is reached
// through p.h, never stored on the worker: a worker is pure topology.
type worker struct {
	id      int
	e       *Engine
	mailbox chan xbarMsg
	// runnable holds packets promoted by a pop, drained before the next
	// mailbox receive.
	runnable []*packet
	// xout accumulates outgoing steers per destination worker while this
	// worker drains its mailbox; xoutPend lists the dirty destinations in
	// first-touch order. Flushed (one batch send per destination) whenever
	// the mailbox runs dry — and always before blocking on it, so a
	// buffered packet another worker needs can never be stranded.
	xout     []*pktBatch
	xoutPend []int
	// outs collects streaming-mode egress outputs worker-privately (merged
	// by Engine.Outputs after the join); egRecs collects (seq, id) egress
	// records merged into the global order at Drain. Both replace the old
	// engine-wide egress mutex.
	outs   map[int64][]int64
	egRecs []egRec
	// touched is per-visit scratch: the distinct concrete indices touched
	// per visit slot within one stage execution. It grows on demand to the
	// widest visit seen — bounded by the largest per-stage slot count across
	// loaded programs, so it stops allocating after warmup.
	touched [][]int
	// obs is the access observer bound once at construction (a fresh
	// closure per visit would put one heap allocation back on the hot
	// path); obsP/obsV/obsT carry the current visit's context to it.
	obs  func(reg int, idx int64, write bool)
	obsP *packet
	obsV *visit
	obsT [][]int
	// lat is the worker-private latency histogram, merged by the engine
	// after the goroutine joins (the share-nothing stats.Histogram
	// pattern).
	lat *stats.Histogram
	// steers, parks, wasted, processed and parkedDelta tally events since
	// the last publish: plain fields on the hot path, added to the shared
	// engine and telemetry counters (and processedN, parkedN) once per
	// handled mailbox message and before blocking.
	steers, parks, wasted, processed, parkedDelta int64
	// Live occupancy counters for WorkerStats: parked packets, process
	// invocations, egresses, and (tracer-gated) busy wall time.
	parkedN    atomic.Int64
	processedN atomic.Int64
	egressedN  atomic.Int64
	busyNs     atomic.Int64
}

func newWorker(e *Engine, id int) *worker {
	w := &worker{
		id:      id,
		e:       e,
		mailbox: make(chan xbarMsg, e.cfg.Window),
		xout:    make([]*pktBatch, e.cfg.Workers),
		lat:     stats.NewHistogram(latLo, latHi, latBuckets),
	}
	if e.cfg.RecordOutputs {
		w.outs = make(map[int64][]int64) // streaming mode; unused when Run preallocates e.outs
	}
	w.obs = w.observe
	return w
}

// run is the worker loop: drain promoted packets first, then opportunistically
// drain the mailbox (coalescing outgoing steers per destination the whole
// while), and only after flushing those steers block on the mailbox until
// the engine shuts down.
func (w *worker) run() {
	defer w.e.wg.Done()
	for {
		for n := len(w.runnable); n > 0; n = len(w.runnable) {
			p := w.runnable[n-1]
			w.runnable = w.runnable[:n-1]
			if p.span != nil {
				// A promoted packet was parked: the elapsed segment is
				// the D4 ordering wait.
				p.span.Advance(StageTicketWait, w.id)
			}
			w.process(p)
		}
		// Opportunistic non-blocking receive: as long as work keeps
		// arriving, keep processing and let steers pile into xout. Total
		// undelivered messages are bounded by the window, so this cannot
		// starve the flush below.
		select {
		case m := <-w.mailbox:
			w.handle(m)
			continue
		default:
		}
		// Nothing runnable and the mailbox is dry: flush the coalesced
		// steers (their holders may be the only packets able to make
		// progress) and the event tallies (so Drain and the samplers read
		// exact totals from an idle worker), then block.
		w.flushSteers()
		w.publish()
		select {
		case m := <-w.mailbox:
			w.handle(m)
		case <-w.e.quit:
			return
		case <-w.e.abort:
			return
		}
	}
}

// handle processes one mailbox transfer: a coalesced batch in order (an
// admission chunk or another worker's steer flush), or a single packet.
// Promotions triggered by earlier batch members queue on runnable and
// drain before the next mailbox receive.
func (w *worker) handle(m xbarMsg) {
	if m.batch != nil {
		for _, p := range m.batch.items {
			if p.span != nil {
				p.span.Advance(StageCrossbar, w.id)
			}
			w.process(p)
		}
		w.e.putBatch(m.batch)
	} else {
		if m.p.span != nil {
			// The elapsed segment is the crossbar hop: mailbox queueing plus
			// transit (initial dispatch or a steer).
			m.p.span.Advance(StageCrossbar, w.id)
		}
		w.process(m.p)
	}
	w.publish()
}

// bufferSteer parks an outgoing steer in the per-destination batch instead
// of paying a channel send (and a scheduler wakeup) per packet; flushSteers
// delivers every dirty destination's batch in one send each.
func (w *worker) bufferSteer(dest int, p *packet) {
	b := w.xout[dest]
	if b == nil {
		b = w.e.getBatch()
		w.xout[dest] = b
		w.xoutPend = append(w.xoutPend, dest)
	}
	b.items = append(b.items, p)
}

// flushSteers sends every buffered steer batch to its destination worker,
// in first-touch order. Called whenever the mailbox runs dry and always
// before blocking on it. On abort the engine is being torn down — the
// remaining batches are abandoned like any other in-flight packet.
func (w *worker) flushSteers() {
	if len(w.xoutPend) == 0 {
		return
	}
	for _, d := range w.xoutPend {
		b := w.xout[d]
		w.xout[d] = nil
		select {
		case w.e.workers[d].mailbox <- xbarMsg{batch: b}:
		case <-w.e.abort:
			return
		}
	}
	w.xoutPend = w.xoutPend[:0]
}

// publish adds the event tallies to the shared counters — one atomic add per
// counter that moved, instead of one per event.
func (w *worker) publish() {
	e := w.e
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

// process advances the packet as far as it can go on this worker: stateless
// stages execute inline; a visit stage either steers the packet to the
// owning worker (D3), parks it on the first slot whose ticket is not yet
// served (D4), or executes. Reaching the last stage egresses the packet.
func (w *worker) process(p *packet) {
	e := w.e
	w.processed++
	if e.trc != nil {
		// Busy-time accounting rides the tracing switch: two time.Now
		// calls per process invocation are only paid when an operator
		// turned introspection on.
		t0 := time.Now()
		defer func() { w.busyNs.Add(time.Since(t0).Nanoseconds()) }()
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
			if h.bc != nil {
				if err := h.wvms[w.id].ExecStage(&h.bc.Stages[p.nextStage], p.env, regs); err != nil {
					panic("dataplane: " + err.Error()) // compiled code is never corrupt
				}
			} else {
				ir.ExecStage(&h.prog.Stages[p.nextStage], p.env, regs)
			}
			p.nextStage++
			continue
		}
		if v.pipe != w.id {
			w.steers++
			if p.span != nil {
				// Close the exec segment before the handoff; the receiving
				// worker stamps the crossbar hop (which now includes any
				// time the packet waits in the coalescing buffer).
				p.span.Advance(StageExec, w.id)
			}
			w.bufferSteer(v.pipe, p)
			return
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

// observe is the access observer execVisit attaches to stage execution
// (via the once-bound w.obs): it validates that every concrete register
// access was covered by a ticket and records which indices each slot
// ticket actually covered. Context arrives through obsP/obsV/obsT.
func (w *worker) observe(reg int, idx int64, write bool) {
	p, v, touched := w.obsP, w.obsV, w.obsT
	ci := banzai.ClampIndex(int(idx), p.h.prog.Regs[reg].Size)
	ri := -1
	for i, ref := range v.slots {
		if ref.key.reg == reg && (ref.key.idx == ci || ref.key.idx < 0) {
			ri = i
			break
		}
	}
	if ri < 0 {
		panic(fmt.Sprintf("dataplane: packet %d accessed r%d[%d] in stage %d without a ticket",
			p.id, reg, ci, v.stage))
	}
	for _, seen := range touched[ri] {
		if seen == ci {
			return
		}
	}
	touched[ri] = append(touched[ri], ci)
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

// execVisit executes the visit's stage with the access observer attached,
// recording which concrete register indices each slot ticket actually
// covered (predicates evaluate live, so a conservative ticket may cover
// nothing — a wasted visit). It then retires one ticket per slot and
// promotes the packet parked on each slot's next ticket, if any.
func (w *worker) execVisit(p *packet, v *visit) {
	h := p.h
	for len(w.touched) < len(v.slots) {
		w.touched = append(w.touched, nil)
	}
	touched := w.touched[:len(v.slots)]
	for i := range touched {
		touched[i] = touched[i][:0]
	}
	w.obsP, w.obsV, w.obsT = p, v, touched
	regs := h.wregs[w.id]
	if h.bc != nil {
		if err := h.wvms[w.id].ExecStageObserved(&h.bc.Stages[v.stage], p.env, regs, w.obs); err != nil {
			panic("dataplane: " + err.Error())
		}
	} else {
		ir.ExecStageObserved(&h.prog.Stages[v.stage], p.env, regs, w.obs)
	}
	w.obsP, w.obsV, w.obsT = nil, nil, nil
	record := w.e.cfg.RecordAccessOrder
	for i := range v.slots {
		ref := &v.slots[i]
		if len(touched[i]) == 0 {
			w.wasted++
		}
		if q := ref.st.pop(ref.tk, touched[i], p.id, record); q != nil {
			w.parkedDelta--
			w.runnable = append(w.runnable, q)
		}
	}
}

// egress completes the packet: record outputs and egress order (both into
// worker-private shards — no lock on the egress path), return the quota
// token, notify the OnEgress hook, recycle the packet, release the window
// token, and close the engine's done gate on the last packet.
func (w *worker) egress(p *packet) {
	e := w.e
	if p.span != nil {
		// Close the final exec segment; everything from here to the
		// finish — output recording and the OnEgress hook (the TCP ack
		// enqueue on the server path) — is the egress segment.
		p.span.Advance(StageExec, w.id)
	}
	if e.outs != nil {
		e.outs[p.id] = append([]int64(nil), p.env.Fields...)
	} else if w.outs != nil {
		// Streaming mode: worker-private map, merged by Engine.Outputs.
		w.outs[p.id] = append([]int64(nil), p.env.Fields...)
	}
	if e.cfg.RecordEgressOrder {
		w.egRecs = append(w.egRecs, egRec{seq: e.egSeq.Add(1), id: p.id})
	}
	w.lat.Add(float64(time.Since(p.start).Microseconds()))
	w.egressedN.Add(1)
	e.met.Egressed.Inc()
	// The quota token goes back before the hook announces the egress: a
	// submitter that keeps no more in flight than its quota (a wire client
	// whose window equals it) may send the next packet the moment it hears
	// of this one, and that packet must not be shed against a token this
	// one still holds. (The quota is only a count; nothing reuses storage
	// on it, unlike the window token below.)
	h := p.h
	if h.quota != nil {
		h.quota.release(1)
	}
	if f := e.cfg.OnEgress; f != nil {
		f(p.id, p.tag)
	}
	if p.span != nil {
		p.span.Advance(StageEgress, w.id)
		e.trc.finish(p.span)
		p.span = nil // the tracer owns (and recycles) the span now
	}
	// Every observer — outputs copy, access log (written at pop), egress
	// record, span, OnEgress — is done with the packet: recycle it, then
	// return the window token so the admitter can only reuse the id slot
	// after the packet is safely on the free list.
	h.putPacket(p)
	h.completed.Add(1)
	e.releaseWindow()
	c := e.completed.Add(1)
	if t := e.total.Load(); t >= 0 && c == t {
		e.closeDone()
	}
}
