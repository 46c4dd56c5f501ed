package screp

import (
	"time"

	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/stats"
)

// packet is one in-flight packet. Owned by exactly one goroutine at a
// time (the admitter, then its executing replica), handed off over the
// mailbox channel — so none of its fields need locking.
type packet struct {
	id    int64 // the global sequence number; executor = id mod k
	env   *ir.Env
	start time.Time
	span  *dataplane.Span // nil for unsampled packets
}

// pktBatch is one mailbox transfer, SubmitBatch's per-worker chunk run in
// sequence order; recycled through the engine's batch pool.
type pktBatch struct {
	items []*packet
}

// egRec is one worker-private egress record (seq drawn from the engine's
// global atomic counter at egress time; merged and sorted at Drain).
type egRec struct {
	seq int64
	id  int64
}

// worker is one replica mapped onto one goroutine: a full private
// register file and a replay frontier. It executes the packets whose
// sequence number is congruent to its id mod k and replays everyone
// else's write deltas in sequence order.
type worker struct {
	id      int
	e       *Engine
	mailbox chan *pktBatch
	// regs is this replica's full private copy of all register state.
	regs *ir.RegFile
	// applied is the replay frontier: every delta below it has been
	// applied to regs.
	applied int64
	// seen dedups the order log per (reg, clamped idx) per stage — the
	// same granularity the banzai reference and the sharded engine use.
	// dirtySeen/dirty accumulate the packet's written slots across its
	// whole stateful span (the delta to publish). obsID carries the
	// current packet's id to the bound observer.
	seen      map[[2]int]bool
	dirtySeen map[[2]int]bool
	dirty     [][2]int
	writeBuf  []regWrite
	obsID     int64
	obs       func(reg int, idx int64, write bool)
	// outs collects egress outputs worker-privately (nil unless
	// Config.RecordOutputs); egRecs the (seq, id) egress records; lat the
	// private latency histogram — all merged engine-side after the join.
	outs   map[int64][]int64
	egRecs []egRec
	lat    *stats.Histogram
	// deltasN/replayedN are worker-local run counters, summed at result
	// time.
	deltasN   int64
	replayedN int64
}

func newWorker(e *Engine, id int) *worker {
	w := &worker{
		id:        id,
		e:         e,
		mailbox:   make(chan *pktBatch, e.cfg.Window),
		regs:      ir.NewRegFile(e.prog),
		seen:      make(map[[2]int]bool),
		dirtySeen: make(map[[2]int]bool),
		lat:       newHistogram(),
	}
	if e.cfg.RecordOutputs {
		w.outs = make(map[int64][]int64)
	}
	w.obs = w.observe
	return w
}

// run is the replica loop: drain the mailbox (opportunistically first),
// process each packet to completion, and exit on quit (drained stream) or
// abort (watchdog). Packets arrive in sequence order per worker — the
// admitter is serial and the channel is FIFO — which the replay frontier
// relies on.
func (w *worker) run() {
	defer w.e.wg.Done()
	for {
		select {
		case b := <-w.mailbox:
			if !w.handle(b) {
				return
			}
			continue
		default:
		}
		select {
		case b := <-w.mailbox:
			if !w.handle(b) {
				return
			}
		case <-w.e.quit:
			return
		case <-w.e.abort:
			return
		}
	}
}

// handle processes one mailbox transfer; false means the engine aborted
// mid-packet (a replay wait observed the abort) and the loop should exit.
func (w *worker) handle(b *pktBatch) bool {
	for _, p := range b.items {
		if p.span != nil {
			p.span.Advance(dataplane.StageCrossbar, w.id)
		}
		if !w.process(p) {
			return false // dying engine: remaining packets are abandoned
		}
	}
	w.e.putBatch(b)
	return true
}

// process runs one packet through the full stage program on this replica:
// the stateless head executes immediately, the stateful span waits for
// (and applies) every earlier packet's delta, executes with the access
// observer bound, publishes its own delta, and the stateless tail runs
// after — outside the serialized region. Returns false when the engine
// aborted during the replay wait.
func (w *worker) process(p *packet) bool {
	e := w.e
	first, last := e.firstStateful, e.lastStateful
	if last < 0 {
		// Stateless program: a pure round-robin spray — no replay, no
		// publication, replicas never diverge.
		for si := range e.prog.Stages {
			w.execStage(si, p.env)
		}
		w.egress(p)
		return true
	}
	for si := 0; si < first; si++ {
		w.execStage(si, p.env)
	}
	if p.span != nil {
		p.span.Advance(dataplane.StageExec, w.id)
	}
	if f := e.testBeforeReplay; f != nil {
		f(p)
	}
	if !w.replayTo(p.id) {
		return false // abort while waiting on an unpublished delta
	}
	if p.span != nil {
		p.span.Advance(dataplane.StageReplayWait, w.id)
	}
	// The serialized stateful span: every delta below p.id is applied, so
	// this replica's register state is exactly the single-pipeline state
	// at p.id's arrival. Stages execute with the observer attached on
	// stateful stages (order log + dirty-slot capture); interleaved
	// stateless stages run plain.
	w.obsID = p.id
	clear(w.dirtySeen)
	w.dirty = w.dirty[:0]
	for si := first; si <= last; si++ {
		if e.stateful[si] {
			clear(w.seen)
			w.execStageObserved(si, p.env)
		} else {
			w.execStage(si, p.env)
		}
	}
	// Publish the delta: the final value of every slot the packet wrote.
	// Packets that wrote nothing (false predicates) publish an empty
	// delta — the sequence chain must stay dense.
	w.writeBuf = w.writeBuf[:0]
	for _, dk := range w.dirty {
		w.writeBuf = append(w.writeBuf, regWrite{reg: dk[0], idx: dk[1], val: w.regs.Array(dk[0])[dk[1]]})
	}
	e.ring.publish(p.id, w.writeBuf)
	w.applied = p.id + 1 // own writes are already in the replica
	w.deltasN++
	e.met.Deltas.Inc()
	for si := last + 1; si < len(e.prog.Stages); si++ {
		w.execStage(si, p.env)
	}
	w.egress(p)
	return true
}

// replayTo applies every published delta below seq to this replica,
// waiting (via the ring) for any not yet published. Returns false when
// the engine aborted during a wait.
func (w *worker) replayTo(seq int64) bool {
	applied := w.applied
	if applied >= seq {
		return true
	}
	var replayed int64
	for t := applied; t < seq; t++ {
		en := w.e.ring.waitFor(t, w.e.abort)
		if en == nil {
			return false
		}
		for _, wr := range en.writes {
			w.regs.Array(wr.reg)[wr.idx] = wr.val
		}
		replayed += int64(len(en.writes))
	}
	w.applied = seq
	if replayed > 0 {
		w.replayedN += replayed
		w.e.met.ReplayedWrites.Add(replayed)
	}
	return true
}

// observe is the access observer bound once at construction: it runs for
// every effectively-executed stateful instruction (predicate already
// true) inside the serialized span. Reads and writes feed the shared C1
// order log (deduped per slot per stage, matching the reference);
// writes additionally mark the slot dirty for the packet's delta.
func (w *worker) observe(reg int, idx int64, write bool) {
	ci := ir.ClampIndex(int(idx), w.e.prog.Regs[reg].Size)
	dk := [2]int{reg, ci}
	if write && !w.dirtySeen[dk] {
		w.dirtySeen[dk] = true
		w.dirty = append(w.dirty, dk)
	}
	if w.e.orders == nil || w.seen[dk] {
		return
	}
	w.seen[dk] = true
	w.e.orders[dk] = append(w.e.orders[dk], w.obsID)
}

// execStage runs stage si on the VM.
func (w *worker) execStage(si int, env *ir.Env) {
	if err := w.e.vm.ExecStage(&w.e.bc.Stages[si], env, w.regs); err != nil {
		panic("screp: " + err.Error()) // envs are e.prog-shaped
	}
}

// execStageObserved runs stage si with the C1 access observer attached.
func (w *worker) execStageObserved(si int, env *ir.Env) {
	if err := w.e.vm.ExecStageObserved(&w.e.bc.Stages[si], env, w.regs, w.obs); err != nil {
		panic("screp: " + err.Error())
	}
}

// egress completes the packet: record outputs and egress order into
// worker-private shards, hand a sampled span to the tracer, recycle the
// packet, release the window token, and close the engine's done gate on
// the last packet.
func (w *worker) egress(p *packet) {
	e := w.e
	if p.span != nil {
		p.span.Advance(dataplane.StageExec, w.id)
	}
	if w.outs != nil {
		w.outs[p.id] = append([]int64(nil), p.env.Fields...)
	}
	if e.cfg.RecordEgressOrder {
		w.egRecs = append(w.egRecs, egRec{seq: e.egSeq.Add(1), id: p.id})
	}
	w.lat.Add(float64(time.Since(p.start).Microseconds()))
	e.met.Egressed.Inc()
	if p.span != nil {
		p.span.Advance(dataplane.StageEgress, w.id)
		e.trc.Finish(p.span)
		p.span = nil // the tracer owns (and recycles) the span now
	}
	e.putPacket(p)
	e.releaseWindow()
	c := e.completed.Add(1)
	if t := e.total.Load(); t >= 0 && c == t {
		e.closeDone()
	}
}
