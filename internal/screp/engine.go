package screp

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mp5/internal/banzai"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

// Engine runs compiled MP5 programs under state-compute replication (see
// the package comment for the model). It intentionally mirrors the
// dataplane engine's surface — Start/Submit/SubmitBatch/Drain plus the
// post-run accessors — so callers (the fuzz driver, mp5sim, mp5bench) can
// swap parallelization strategies behind one shape. An Engine is
// single-use: construct with New, drive one trace or stream, then read
// the post-run accessors.
//
// Unlike the sharded engine, screp needs no resolution metadata: with no
// preemptive address resolution there is nothing to resolve at admission,
// so any compiled program runs (TargetMP5 or not).
type Engine struct {
	cfg  Config
	k    int
	prog *ir.Program
	// bc is the shared compiled program and vm the VM every worker runs
	// it on (a VM holds no state).
	bc *bytecode.Program
	vm *bytecode.VM

	// stateful[si] marks stages with register accesses; first/lastStateful
	// bound the serialized span (-1/-1 on stateless programs, which spray
	// with no replay or publication at all).
	stateful      []bool
	firstStateful int
	lastStateful  int

	workers []*worker
	ring    *deltaLog

	// orders is the shared C1 access-order log, keyed (reg, clamped idx).
	// It needs no lock: appends happen only inside a packet's stateful
	// span, and spans are globally serialized by the publish/replay stamp
	// chain (each release-store of a stamp happens-before the next span's
	// acquire-load), so writes are totally ordered with happens-before
	// edges the race detector also sees. Nil unless RecordAccessOrder.
	orders map[[2]int][]int64

	// winCap/winUsed/winAvail form the admission-control semaphore,
	// identical in discipline to the sharded engine's: the serial admitter
	// is the only acquirer (CAS loop), egressing workers release with an
	// atomic decrement plus a non-blocking wakeup. Mailboxes are sized to
	// Window and every in-flight packet occupies at most one mailbox slot,
	// so dispatch sends never block.
	winCap   int64
	winUsed  atomic.Int64
	winAvail chan struct{}

	quit  chan struct{} // closed by Drain after the stream ends
	abort chan struct{} // closed by the watchdog on a stall
	done  chan struct{} // closed when completed == injected

	doneOnce  sync.Once
	abortOnce sync.Once
	wg        sync.WaitGroup

	started bool
	startT  time.Time
	wdStop  chan struct{}
	wdWg    sync.WaitGroup

	// total holds the final injected count, -1 while admission runs.
	total     atomic.Int64
	completed atomic.Int64
	submitted atomic.Int64
	stalled   atomic.Bool

	// egSeq/egressOrder: sharded egress recording, merged at Drain.
	egSeq       atomic.Int64
	egressOrder []int64

	// free is the packet free list (envs are program-shaped, so one
	// engine-wide list suffices — screp is single-program).
	freeMu sync.Mutex
	free   []*packet

	// chunk/xbuf are admitter-only scratch for SubmitBatch; batchPool
	// recycles the coalesced dispatch carriers.
	chunk     []*packet
	xbuf      []*pktBatch
	batchPool sync.Pool

	met *Metrics
	trc *dataplane.Tracer

	// testBeforeReplay, when set, runs on the executing worker right
	// before it replays up to its packet's sequence number — the
	// white-box hook the stall test uses to wedge a replica.
	testBeforeReplay func(*packet)
}

// New builds a replication engine for prog.
func New(prog *ir.Program, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:           cfg,
		k:             cfg.Workers,
		prog:          prog,
		bc:            bytecode.MustCompile(prog),
		firstStateful: -1,
		lastStateful:  -1,
		winCap:        int64(cfg.Window),
		winAvail:      make(chan struct{}, 1),
		quit:          make(chan struct{}),
		abort:         make(chan struct{}),
		done:          make(chan struct{}),
		met:           cfg.Metrics,
		trc:           cfg.Tracer,
	}
	e.stateful = make([]bool, len(prog.Stages))
	for i := range prog.Stages {
		if prog.Stages[i].Stateful() {
			e.stateful[i] = true
			if e.firstStateful < 0 {
				e.firstStateful = i
			}
			e.lastStateful = i
		}
	}
	e.vm = bytecode.NewVM(e.bc)
	if cfg.RecordAccessOrder {
		e.orders = make(map[[2]int][]int64)
	}
	e.ring = newDeltaLog(e.k)
	e.chunk = make([]*packet, 0, cfg.Window)
	e.xbuf = make([]*pktBatch, e.k)
	e.free = make([]*packet, 0, cfg.Window)
	e.total.Store(-1)
	if e.met == nil {
		e.met = &Metrics{} // all-nil counters: every update is a no-op
	}
	for i := 0; i < e.k; i++ {
		e.workers = append(e.workers, newWorker(e, i))
	}
	return e
}

// Run drives the whole trace and blocks until every packet egressed (or
// the watchdog aborted a stall) — the batch shorthand for
// Start + SubmitBatch + Drain.
func (e *Engine) Run(arrivals []core.Arrival) *Result {
	if len(arrivals) == 0 {
		return e.result(0, 0)
	}
	e.Start()
	e.SubmitBatch(arrivals, nil)
	return e.Drain()
}

// Start launches the replica workers and the liveness watchdog, switching
// the engine into open-ended ingestion mode. Start must be called exactly
// once, and Submit only from one goroutine at a time — admission order
// assigns the global sequence numbers that define C1.
func (e *Engine) Start() {
	if e.started {
		panic("screp: Engine.Start called twice (engines are single-use)")
	}
	e.started = true
	e.startT = time.Now()
	e.wg.Add(e.k)
	for _, w := range e.workers {
		go w.run()
	}
	e.wdStop = make(chan struct{})
	e.wdWg.Add(1)
	go e.watchdog(e.wdStop, &e.wdWg)
}

// Submit admits one packet: a one-packet SubmitBatch (unsafe.Slice views
// *a as that batch, without a copy or an allocation). It reports whether
// the packet was admitted; false means the engine aborted. Admitter-serial.
func (e *Engine) Submit(a *core.Arrival) bool {
	return e.SubmitBatch(unsafe.Slice(a, 1), nil) == 1
}

// SubmitBatch admits a run of packets — the engine's one admission path:
// block until the admission window has room, assign each packet the next
// sequence number, and spray it to worker seq mod k — no resolution stages,
// no tickets, no steering decision. The window is taken once per chunk and
// each destination worker gets one mailbox send per chunk (round-robin spray
// keeps each worker's members in sequence order inside its batch). spans is
// either nil or parallel to arrs: a span (nil for unsampled packets) rides
// its packet and accrues window-wait, admit, crossbar, exec, replay-wait and
// egress segments until the tracer collects it at egress.
//
// Returns how many packets were admitted, a dense prefix of arrs; fewer than
// len(arrs) means the engine aborted. A chunk counts only once it is
// dispatched: one the abort reaches first is retired (window tokens
// returned, packets recycled) and left out of the count, though its
// sequence numbers stay consumed. Admitter-serial.
func (e *Engine) SubmitBatch(arrs []core.Arrival, spans []*dataplane.Span) int {
	admitted := 0
	for admitted < len(arrs) {
		select {
		case <-e.abort:
			return admitted
		default:
		}
		base := e.submitted.Load()
		got := int(e.acquireWindow(int64(len(arrs) - admitted)))
		if got == 0 {
			return admitted
		}
		for i := 0; i < got; i++ {
			a := &arrs[admitted+i]
			id := base + int64(i)
			var sp *dataplane.Span
			if spans != nil {
				sp = spans[admitted+i]
			}
			if sp != nil {
				sp.Advance(dataplane.StageWindowWait, -1)
				sp.ID = id
			}
			p := e.prepare(id, a)
			if sp != nil {
				sp.Advance(dataplane.StageAdmit, -1)
				p.span = sp
			}
			e.chunk = append(e.chunk, p)
		}
		e.submitted.Store(base + int64(got))
		if !e.dispatchChunk() {
			return admitted
		}
		admitted += got
	}
	return admitted
}

// dispatchChunk coalesces the admitted chunk into at most one mailbox
// send per destination worker and clears the chunk. Returns false when
// the engine aborted mid-dispatch; undispatched packets are retired.
func (e *Engine) dispatchChunk() bool {
	for _, p := range e.chunk {
		dest := int(p.id % int64(e.k))
		if e.xbuf[dest] == nil {
			e.xbuf[dest] = e.getBatch()
		}
		e.xbuf[dest].items = append(e.xbuf[dest].items, p)
	}
	e.chunk = e.chunk[:0]
	// Abort is checked up front as well as on each send: a select picks
	// randomly among ready cases, so a dead engine could otherwise dispatch.
	ok := true
	select {
	case <-e.abort:
		ok = false
	default:
	}
	for w, b := range e.xbuf {
		if b == nil {
			continue
		}
		e.xbuf[w] = nil
		if ok {
			select {
			case e.workers[w].mailbox <- b:
				continue
			case <-e.abort:
				ok = false
			}
		}
		for _, p := range b.items {
			e.retire(p)
		}
		e.putBatch(b)
	}
	return ok
}

// retire un-admits a packet on the abort path: return its window token
// and recycle it. Only ever runs on a dead engine.
func (e *Engine) retire(p *packet) {
	p.span = nil
	e.putPacket(p)
	e.releaseWindow()
}

// prepare readies one packet on the admitter: recycle or build a packet
// and reset its env. The whole admission cost — no resolution stages, no
// ticket issue — which is the replication strategy's selling point.
func (e *Engine) prepare(id int64, a *core.Arrival) *packet {
	p := e.getPacket()
	p.id = id
	p.env.ResetFor(a.Fields)
	p.span = nil
	p.start = time.Now()
	e.met.Admitted.Inc()
	return p
}

// Drain ends admission and blocks until every in-flight packet egressed
// (or the watchdog aborted), joins the workers, then converges every
// replica to the final sequence number so all register files are
// bit-identical. After Drain the post-run accessors are valid.
func (e *Engine) Drain() *Result {
	if !e.started {
		return e.result(0, 0)
	}
	submitted := e.submitted.Load()
	e.total.Store(submitted)
	if e.completed.Load() == submitted {
		e.closeDone()
	}
	select {
	case <-e.done:
	case <-e.abort:
	}
	close(e.wdStop)
	e.wdWg.Wait()
	close(e.quit)
	e.wg.Wait()
	if !e.stalled.Load() {
		e.converge(submitted)
	}
	e.mergeEgressOrder()
	return e.result(submitted, time.Since(e.startT))
}

// converge replays every replica to the final sequence number, after the
// workers joined. Safe without waiting: every packet egressed, so every
// delta up to total is published, and the ring still holds every entry a
// lagging replica needs — a worker's last executed packet had a sequence
// number within k of total (round-robin), so its replay frontier is
// already past total-k, and entries are only overwritten a full ring lap
// (cap > k+1) later.
func (e *Engine) converge(total int64) {
	if e.lastStateful < 0 {
		return // stateless program: replicas never diverged
	}
	for _, w := range e.workers {
		w.replayTo(total)
	}
}

// mergeEgressOrder stitches the per-worker (seq, id) egress records into
// the global wall-clock egress sequence (Drain-time, workers joined).
func (e *Engine) mergeEgressOrder() {
	if !e.cfg.RecordEgressOrder {
		return
	}
	n := 0
	for _, w := range e.workers {
		n += len(w.egRecs)
	}
	recs := make([]egRec, 0, n)
	for _, w := range e.workers {
		recs = append(recs, w.egRecs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	e.egressOrder = make([]int64, len(recs))
	for i, r := range recs {
		e.egressOrder[i] = r.id
	}
}

// acquireWindow takes up to want admission-window tokens (at least one),
// blocking while the window is full. Returns the number taken, or 0 when
// the engine aborted. Admitter-serial.
func (e *Engine) acquireWindow(want int64) int64 {
	for {
		used := e.winUsed.Load()
		if free := e.winCap - used; free > 0 {
			n := want
			if n > free {
				n = free
			}
			if e.winUsed.CompareAndSwap(used, used+n) {
				return n
			}
			continue
		}
		select {
		case <-e.winAvail:
		case <-e.abort:
			return 0
		}
	}
}

// releaseWindow returns one token and wakes the admitter if it is waiting.
func (e *Engine) releaseWindow() {
	e.winUsed.Add(-1)
	select {
	case e.winAvail <- struct{}{}:
	default: // a wakeup is already pending; one is enough
	}
}

// getPacket/putPacket recycle packets through the engine's free list.
func (e *Engine) getPacket() *packet {
	e.freeMu.Lock()
	if n := len(e.free); n > 0 {
		p := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.freeMu.Unlock()
		return p
	}
	e.freeMu.Unlock()
	return &packet{env: ir.NewEnv(e.prog)}
}

func (e *Engine) putPacket(p *packet) {
	e.freeMu.Lock()
	e.free = append(e.free, p)
	e.freeMu.Unlock()
}

// getBatch/putBatch recycle the coalesced dispatch carriers.
func (e *Engine) getBatch() *pktBatch {
	if v := e.batchPool.Get(); v != nil {
		return v.(*pktBatch)
	}
	return &pktBatch{items: make([]*packet, 0, 64)}
}

func (e *Engine) putBatch(b *pktBatch) {
	for i := range b.items {
		b.items[i] = nil
	}
	b.items = b.items[:0]
	e.batchPool.Put(b)
}

// watchdog aborts the run when no packet egresses for StallTimeout while
// packets are in flight — the liveness backstop behind the replay spin
// (an idle stream is healthy, not stalled).
func (e *Engine) watchdog(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	period := e.cfg.StallTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	last := e.completed.Load()
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-e.done:
			return
		case <-tick.C:
			cur := e.completed.Load()
			if cur != last || cur == e.submitted.Load() {
				last, lastChange = cur, time.Now()
				continue
			}
			if time.Since(lastChange) >= e.cfg.StallTimeout {
				e.stalled.Store(true)
				e.met.Stalls.Inc()
				e.abortOnce.Do(func() { close(e.abort) })
				return
			}
		}
	}
}

func (e *Engine) closeDone() {
	e.doneOnce.Do(func() { close(e.done) })
}

// result assembles the run summary after every worker joined.
func (e *Engine) result(injected int64, elapsed time.Duration) *Result {
	lat := newHistogram()
	var deltas, replayed int64
	for _, w := range e.workers {
		lat.Merge(w.lat)
		deltas += w.deltasN
		replayed += w.replayedN
	}
	res := &Result{
		Workers:         e.k,
		Injected:        injected,
		Completed:       e.completed.Load(),
		DeltasPublished: deltas,
		WritesReplayed:  replayed,
		Stalled:         e.stalled.Load(),
		Elapsed:         elapsed,
		Latency:         lat,
	}
	if e.cfg.RecordEgressOrder {
		res.Reordered = core.CountOvertakers(e.egressOrder)
	}
	if elapsed > 0 {
		res.PktsPerSec = float64(res.Completed) / elapsed.Seconds()
	}
	return res
}

// Outputs returns each completed packet's final header fields, keyed by
// packet id — the shape equiv.Ref.Verify consumes. Only valid after
// Run/Drain with Config.RecordOutputs set. Outputs live in per-worker maps
// until this merge (no egress lock).
func (e *Engine) Outputs() map[int64][]int64 {
	if !e.cfg.RecordOutputs {
		return nil
	}
	n := 0
	for _, w := range e.workers {
		n += len(w.outs)
	}
	out := make(map[int64][]int64, n)
	for _, w := range e.workers {
		for id, f := range w.outs {
			out[id] = f
		}
	}
	return out
}

// FinalRegs returns the final register state. After a clean Drain every
// replica has converged to bit-identical state, so replica 0's register
// file is THE final state (ReplicaRegs exposes the others; the
// convergence test asserts they agree).
func (e *Engine) FinalRegs() [][]int64 { return e.workers[0].regs.Snapshot() }

// ReplicaRegs returns worker i's private register file snapshot — equal
// across i after a clean Drain, which is exactly what the replica-
// convergence test asserts. Only valid after Drain.
func (e *Engine) ReplicaRegs(i int) [][]int64 { return e.workers[i].regs.Snapshot() }

// AccessOrders returns the per-slot effective access order in packet ids,
// keyed like the simulator's EvAccess stream and banzai's indexed log
// ("r<reg>[<idx>]") — directly comparable to equiv.ReferenceOrder. Only
// valid after Run/Drain, with Config.RecordAccessOrder set.
func (e *Engine) AccessOrders() map[string][]int64 {
	out := make(map[string][]int64, len(e.orders))
	for dk, seq := range e.orders {
		out[banzai.AccessKey(dk[0], dk[1])] = seq
	}
	return out
}

// EgressOrder returns the wall-clock egress sequence of packet ids (only
// recorded with Config.RecordEgressOrder).
func (e *Engine) EgressOrder() []int64 { return e.egressOrder }

// Stalled reports whether the liveness watchdog aborted the engine (any
// goroutine, any time).
func (e *Engine) Stalled() bool { return e.stalled.Load() }

// Workers returns the resolved replica count k.
func (e *Engine) Workers() int { return e.k }

// Submitted returns the number of packets admitted so far (any goroutine).
func (e *Engine) Submitted() int64 { return e.submitted.Load() }

// Completed returns the number of packets egressed so far (any goroutine).
func (e *Engine) Completed() int64 { return e.completed.Load() }

// InFlight returns the number of admitted-but-not-yet-egressed packets,
// bounded by Config.Window (any goroutine).
func (e *Engine) InFlight() int64 { return e.submitted.Load() - e.completed.Load() }

// WindowInUse returns the number of admission-window tokens currently held.
func (e *Engine) WindowInUse() int { return int(e.winUsed.Load()) }

// WindowCap returns the admission-window size.
func (e *Engine) WindowCap() int { return int(e.winCap) }
