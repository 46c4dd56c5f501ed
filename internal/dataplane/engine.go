package dataplane

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mp5/internal/core"
	"mp5/internal/ir"
	"mp5/internal/stats"
)

// regShard is one register array's placement and ticket state. Placement is
// static: owner and slots are set when the handle is built and never change,
// so any goroutine may read them; issued is the admitter's (see slotState).
type regShard struct {
	sharded bool
	size    int
	// owner[i] is the pipeline holding the live copy of index i; unsharded
	// arrays use owner[0] as the whole-array home (sharding.Home).
	owner []int
	// issued[i] is index i's ticket counter (issued[0] the whole-array one
	// of an unsharded array): one dense row, written only by the admitter.
	issued []atomic.Uint64
	// slots is the position table: slots[i] is the owner half of index i's
	// ticket lock, in its owner's block, so the per-access resolve and cover
	// paths index instead of hashing.
	slots []*slotState
}

// Engine runs compiled MP5 programs on a real goroutine topology (see the
// package comment for the architecture map). The topology — workers,
// crossbar mailboxes, the admission-window semaphore — is shared; every
// loaded program gets its own isolated Handle (registers, ticket locks,
// shard map, frame pool, optional admission quota), so one engine can serve
// N tenant programs side by side and hot-add new program versions while
// traffic flows.
//
// It executes either a pre-materialized trace (Run) or an open-ended packet
// stream (Start/Submit/Drain — Run is implemented on top of the streaming
// mode). An Engine is single-use: construct with New (one program) or
// NewMulti+AddProgram, drive one trace or stream, then read the post-run
// accessors. The single-program accessors (Submit, Outputs, FinalRegs,
// AccessOrders, ShardMap, …) operate on the default handle — the first
// program added — so a one-program engine behaves exactly as before the
// multi-tenant refactor.
type Engine struct {
	cfg Config
	k   int

	// workers are the k pipelines, drivers the goroutines stepping them.
	// solo is the one driver when there is exactly one (nil otherwise): the
	// admitter then claims its baton wherever it would wait on it (held,
	// admitter-only, says it got it) and steps it instead — see take.
	workers []*worker
	drivers []*driver
	solo    *driver
	held    bool

	// hMu guards the handle list: AddProgram publishes (possibly mid-run,
	// from any goroutine — the hot-swap path), samplers snapshot it for
	// TicketDepths. def is the first handle added; immutable once set.
	hMu     sync.Mutex
	handles []*Handle
	def     *Handle

	// winCap/winUsed/winAvail form the admission-control semaphore: one
	// token per in-flight packet, shared by every handle (per-tenant limits
	// layer on top as Quotas). The serial admitter takes tokens with one
	// atomic CAS per batch (not per packet); egressing workers return them
	// with an atomic decrement plus a non-blocking signal on winAvail, which
	// a driver goroutine handing the baton to the admitter (want) sends too.
	// The single-slot signal channel cannot lose a wakeup: the admitter is
	// the only acquirer and re-checks winUsed (and the baton) after every
	// wake, and a retained signal merely causes one spurious re-check.
	// Because every in-flight packet sits in at most one queued message (a
	// coalesced batch is one message for many packets) and every driver's
	// mailbox holds Window of them, crossbar sends can never block however
	// the pipelines are dealt — the window bound is what makes the topology
	// deadlock-free.
	winCap   int64
	winUsed  atomic.Int64
	winAvail chan struct{}

	quit  chan struct{} // closed by Run after the trace drains
	abort chan struct{} // closed by the watchdog on a stall
	done  chan struct{} // closed when completed == injected

	doneOnce  sync.Once
	abortOnce sync.Once
	wg        sync.WaitGroup

	// started flips when Start launches the topology; startT anchors the
	// run's elapsed time. wdStop/wdWg manage the watchdog goroutine.
	started bool
	startT  time.Time
	wdStop  chan struct{}
	wdWg    sync.WaitGroup

	// total holds the final injected count, -1 while admission is still
	// running (workers poll it to detect the last egress).
	total     atomic.Int64
	completed atomic.Int64
	// submitted counts admissions across all handles — the dense global
	// packet-id space. Written only by the (serial) admitter, read
	// atomically by the watchdog and health probes.
	submitted atomic.Int64
	steers    atomic.Int64
	wasted    atomic.Int64
	parks     atomic.Int64
	stalled   atomic.Bool
	// spray is admitter-only (serial).
	spray int64

	// egSeq hands out egress sequence numbers; each worker records
	// (seq, id) pairs privately and Drain merges them into egressOrder
	// after the workers join — the sharded replacement for a global
	// egress mutex.
	egSeq       atomic.Int64
	egressOrder []int64

	// Admitter-only scratch, reused across SubmitBatch chunks so the hot
	// path allocates nothing. chunk holds the packets of the batch being
	// admitted, xbuf the per-driver dispatch batches under assembly (their
	// backing slices come from batchPool and are returned by the draining
	// driver).
	chunk []*packet
	xbuf  []*pktBatch
	// batchPool recycles the []*packet slices that ride xbarMsg batches
	// between the admitter and the workers.
	batchPool sync.Pool

	met *Metrics
	trc *Tracer

	// testBeforeExec, when set, runs on the owning worker right before a
	// visit executes — the white-box hook the stall test uses to wedge a
	// packet and exercise the watchdog. testAfterTicket runs on the
	// admitter after tickets are stamped but before dispatch — the hook the
	// abort-retirement tests use to kill the engine at the worst moment.
	testBeforeExec  func(*packet)
	testAfterTicket func()
	// testExecPath, when set, runs on the owning worker before a visit's
	// stage executes on the bytecode VM, with the check path the stage's
	// stability chose (true: tickets checked up front); the visit takes the
	// path it returns. The two-path tests use it to force the observed path
	// and to count which path ran.
	testExecPath func(stage int, upFront bool) bool
}

// NewMulti builds an engine with no programs loaded. Call AddProgram at
// least once before Start; the first program added becomes the default
// handle behind the single-program API (Submit, Outputs, …).
func NewMulti(cfg Config) *Engine {
	procs := runtime.GOMAXPROCS(0) // the platform's one input: read here, once
	cfg = cfg.withDefaults(procs)
	e := &Engine{
		cfg:      cfg,
		k:        cfg.Workers,
		winCap:   int64(cfg.Window),
		winAvail: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		abort:    make(chan struct{}),
		done:     make(chan struct{}),
		met:      cfg.Metrics,
		trc:      cfg.Tracer,
	}
	e.chunk = make([]*packet, 0, cfg.Window)
	e.total.Store(-1)
	if e.met == nil {
		e.met = &Metrics{} // all-nil counters: every update is a no-op
	}
	// One P is the admitter's; more drivers than the rest would take turns.
	// A single driver shares the admitter's goroutine whenever the admitter
	// would wait on it (take), and has its own P the rest of the time.
	for m := min(e.k, max(1, procs-1)); len(e.drivers) < m; {
		e.drivers = append(e.drivers, &driver{
			e: e, mailbox: make(chan xbarMsg, cfg.Window), kick: make(chan struct{}, 1),
			xout: make([]*pktBatch, e.k),
		})
	}
	e.xbuf = make([]*pktBatch, len(e.drivers))
	if len(e.drivers) == 1 {
		e.solo = e.drivers[0]
	}
	for i := 0; i < e.k; i++ {
		d := e.drivers[i%len(e.drivers)]
		w := newWorker(e, i, d)
		d.pipes = append(d.pipes, w)
		e.workers = append(e.workers, w)
	}
	return e
}

// New builds a single-program engine for prog — NewMulti plus one unlimited
// default handle. The program must carry MP5 resolution metadata (compile
// with TargetMP5): state accesses without resolution stages cannot be
// ticketed preemptively.
func New(prog *ir.Program, cfg Config) *Engine {
	e := NewMulti(cfg)
	e.AddProgram("default", prog, nil)
	return e
}

// AddProgram loads a program onto the engine under its own isolated Handle
// (registers, ticket locks, shard placement, frame pool) with an optional
// admission quota (nil = unlimited). Safe to call while the engine is
// running and serving other handles — the hot-swap path: the handle is
// fully built before it is published, in-flight packets of other handles
// are untouched, and the new handle's state starts from the program's
// declared initial values. The first AddProgram sets the default handle.
func (e *Engine) AddProgram(name string, prog *ir.Program, quota *Quota) *Handle {
	e.hMu.Lock()
	version := len(e.handles)
	e.hMu.Unlock()
	h := newHandle(e, name, version, prog, quota)
	e.hMu.Lock()
	// Re-read under the lock: concurrent AddProgram calls may have raced
	// the unlocked version draw above (versions stay unique either way).
	h.version = len(e.handles)
	e.handles = append(e.handles, h)
	if e.def == nil {
		e.def = h
	}
	e.hMu.Unlock()
	return h
}

// Default returns the default handle (the first program added; nil on an
// empty NewMulti engine).
func (e *Engine) Default() *Handle {
	e.hMu.Lock()
	defer e.hMu.Unlock()
	return e.def
}

// Handles snapshots the loaded handles in registration order (any
// goroutine).
func (e *Engine) Handles() []*Handle {
	e.hMu.Lock()
	defer e.hMu.Unlock()
	return append([]*Handle(nil), e.handles...)
}

// Run drives the whole trace through the default handle and blocks until
// every packet egressed (or the watchdog aborted a stall). The admitter
// runs on the calling goroutine: execute the resolution stages, resolve
// visits, issue tickets in arrival order, dispatch.
// Run is the batch shorthand for Start + SubmitBatch + Drain.
func (e *Engine) Run(arrivals []core.Arrival) *Result {
	if len(arrivals) == 0 {
		return e.result(0, 0)
	}
	e.Start()
	e.SubmitBatch(arrivals, nil)
	return e.Drain()
}

// Start launches the drivers and the liveness watchdog, switching
// the engine into open-ended ingestion mode: the caller becomes the serial
// admitter and feeds packets with Submit until Drain. Start must be called
// exactly once, and Submit only from one goroutine at a time (admission
// order is the correctness contract — C1 is defined by it).
func (e *Engine) Start() {
	if e.started {
		panic("dataplane: Engine.Start called twice (engines are single-use)")
	}
	e.started = true
	e.startT = time.Now()
	e.wg.Add(len(e.drivers))
	for _, d := range e.drivers {
		go d.run()
	}
	e.wdStop = make(chan struct{})
	e.wdWg.Add(1)
	go e.watchdog(e.wdStop, &e.wdWg)
}

// Submit admits one packet on the default handle: a one-packet SubmitBatch.
// It reports whether the packet was admitted; false means the engine aborted
// (watchdog stall) — the stream is dead and the caller should Drain.
// unsafe.Slice views *a as a one-element slice, so Submit neither copies nor
// allocates. Admitter-serial: never call Submit concurrently.
func (e *Engine) Submit(a *core.Arrival) bool {
	return e.SubmitBatchTo(e.def, unsafe.Slice(a, 1), nil, nil) == 1
}

// SubmitBatch admits a run of packets on the default handle — see
// SubmitBatchTo.
func (e *Engine) SubmitBatch(arrs []core.Arrival, spans []*Span) int {
	return e.SubmitBatchTo(e.def, arrs, spans, nil)
}

// SubmitBatchTo admits a run of packets on handle h — the engine's one
// admission path: block until the admission window has room, resolve each
// packet and stamp its tickets, and dispatch it to its first-hop pipeline.
// The window is taken and the crossbar sent to once per chunk (one mailbox
// send per destination driver), not per packet. Ticket order — hence C1 — is
// exactly arrival order: packets are resolved, and their tickets stamped,
// serially in slice order.
//
// spans and tags are each either nil or parallel to arrs. A span (nil for
// unsampled packets; see Tracer.Sample) rides its packet and accrues
// window-wait, admit, crossbar, exec, ticket-wait and egress segments until
// the tracer collects it at egress. A tag is opaque to the engine: it rides
// the packet and comes back as OnEgress's second argument, so the caller can
// carry a completion target instead of keeping an id-keyed table (nil means
// all zero).
//
// Returns how many packets were admitted, always a dense prefix of arrs.
// Fewer than len(arrs) means either h's quota ran out — the entire
// unadmitted tail is shed (counted on the handle) rather than blocking the
// admit loop — or the engine aborted (the run is dead). A chunk counts only
// once it is dispatched: one the abort reaches after its tickets were
// stamped is retired (window and quota tokens returned, packets recycled)
// and left out of the count, though its ids stay consumed (Submitted keeps
// ids dense). Admitter-serial.
func (e *Engine) SubmitBatchTo(h *Handle, arrs []core.Arrival, spans []*Span, tags []uint64) int {
	if int64(len(arrs)) >= e.winCap-e.winUsed.Load() {
		e.take() // the batch fills the window: this call will wait on the driver
	}
	defer e.leave()
	admitted := 0
	for admitted < len(arrs) {
		select {
		case <-e.abort:
			return admitted
		default:
		}
		base := e.submitted.Load()
		want := int64(len(arrs) - admitted)
		if h.quota != nil {
			q := h.quota.tryAcquire(want)
			if q == 0 {
				// Quota exhausted: shed the whole remaining tail. Retrying
				// inside this call would either spin or block the (shared)
				// admit loop on one tenant — exactly what quotas exist to
				// prevent.
				shed := int64(len(arrs) - admitted)
				h.shed.Add(shed)
				e.met.QuotaShed.Add(shed)
				return admitted
			}
			want = q
		}
		got := int(e.acquireWindow(want))
		if got == 0 {
			if h.quota != nil {
				h.quota.release(want)
			}
			return admitted
		}
		if h.quota != nil && int64(got) < want {
			h.quota.release(want - int64(got))
		}
		now := time.Now() // before the chunk's first prepare: over-reports, never flatters
		h.getPackets(got)
		for i := 0; i < got; i++ {
			a := &arrs[admitted+i]
			id := base + int64(i)
			var sp *Span
			if spans != nil {
				sp = spans[admitted+i]
			}
			if sp != nil {
				// Batch semantics: the window wait for the whole chunk was
				// paid up front, so later chunk members fold the queueing
				// behind their chunk-mates' admits into window_wait too.
				sp.Advance(StageWindowWait, -1)
				sp.ID = id
			}
			p := e.prepare(h, id, a, now)
			if tags != nil {
				p.tag = tags[admitted+i]
			}
			if sp != nil {
				sp.Advance(StageAdmit, -1)
				p.span = sp
			}
			e.chunk = append(e.chunk, p)
		}
		e.submitted.Store(base + int64(got))
		h.submitted.Add(int64(got))
		e.met.Admitted.Add(int64(got))
		if f := e.testAfterTicket; f != nil {
			f()
		}
		if !e.dispatchChunk() {
			return admitted
		}
		admitted += got
	}
	return admitted
}

// dispatchChunk coalesces the admitted chunk into at most one mailbox send
// per driver (its packets in admission order, each set to start on its own
// first-hop pipeline) and clears the chunk. Returns false when the engine
// aborted mid-dispatch; undispatched packets are retired in place.
func (e *Engine) dispatchChunk() bool {
	for _, p := range e.chunk {
		p.pipe = e.destOf(p)
		di := p.pipe % len(e.drivers) // pipeline i is dealt to driver i mod m
		if e.xbuf[di] == nil {
			e.xbuf[di] = e.getBatch()
		}
		e.xbuf[di].items = append(e.xbuf[di].items, p)
	}
	e.chunk = e.chunk[:0]
	ok := true
	for di, b := range e.xbuf {
		if b == nil {
			continue
		}
		e.xbuf[di] = nil
		if ok = ok && e.send(xbarMsg{to: e.workers[b.items[0].pipe], batch: b}); !ok {
			for _, p := range b.items {
				e.retire(p)
			}
			e.putBatch(b)
		}
	}
	return ok
}

// send queues m on its pipeline's driver mailbox (which never fills — see
// winCap) and kicks that driver's goroutine; or returns false on an aborted
// engine: checked up front, so that a dead engine never dispatches. On a
// one-driver engine an admitter that asked for the baton retries its claim
// first, and while it holds it no kick is sent: it steps the message itself,
// or kicks when it leaves.
func (e *Engine) send(m xbarMsg) bool {
	if e.aborted() {
		return false
	}
	m.to.inbox.Add(1)
	select {
	case m.to.d.mailbox <- m:
	case <-e.abort:
		m.to.inbox.Add(-1)
		return false
	}
	if d := e.solo; d != nil && d.want.Load() {
		e.take()
	}
	if !e.held {
		m.to.d.wake()
	}
	return true
}

// aborted reports, without blocking, whether the watchdog aborted the engine.
func (e *Engine) aborted() bool {
	select {
	case <-e.abort:
		return true
	default:
		return false
	}
}

// take claims a one-driver engine's baton for the admitter, wherever it would
// otherwise wait on the driver: on entry to a SubmitBatchTo whose batch fills
// the window, in runSolo (a full window, and Drain), and again in every send
// while an earlier claim is pending. If the driver goroutine holds the baton,
// take sets want instead: the goroutine stops at its next step boundary, drops
// the baton and signals winAvail, and the admitter's next take gets it. The
// second CAS closes the race with a goroutine releasing between the first CAS
// and the want store: either the CAS sees the release or the goroutine sees
// want (sequentially consistent atomics, Dekker's argument). A no-op with
// several drivers or when already held.
func (e *Engine) take() {
	d := e.solo
	if d == nil || e.held {
		return
	}
	if !d.baton.CompareAndSwap(false, true) {
		d.want.Store(true)
		if !d.baton.CompareAndSwap(false, true) {
			return
		}
	}
	d.want.Store(false)
	e.held = true
}

// leave is the admitter's exit from a one-driver engine: withdraw want, drop
// the baton, and kick the goroutine if anything is in flight, so admitted work
// keeps moving (and in-flight counts — quotas — drain) after the call returns.
// An admitter that neither took nor asked for the baton owes no kick: each of
// its sends kicked.
func (e *Engine) leave() {
	d := e.solo
	if d == nil {
		return
	}
	asked := d.want.Swap(false)
	if e.held {
		e.held = false
		d.baton.Store(false)
	} else if !asked {
		return
	}
	if e.winUsed.Load() > 0 {
		d.wake()
	}
}

// runSolo is the admitter's turn at the one driver in place of a sleep: step
// while more than until window tokens are held. False when the baton is still
// the goroutine's (want is set: it will signal winAvail), the engine aborted,
// or no step made progress — then the baton is dropped before the caller
// sleeps.
func (e *Engine) runSolo(until int64) bool {
	if e.take(); !e.held {
		return false
	}
	ran := false
	for e.winUsed.Load() > until && !e.aborted() && e.solo.step() {
		ran = true
	}
	if !ran {
		e.leave()
	}
	return ran
}

// destOf returns the packet's first-hop worker: the owner of its first
// visit, or the D1 spray target for stateless packets (admitter-serial; the
// spray counter is shared across handles, keeping the stateless load
// uniform whatever the tenant mix).
func (e *Engine) destOf(p *packet) int {
	if len(p.visits) > 0 {
		return p.visits[0].pipe
	}
	d := int(e.spray % int64(e.k))
	e.spray++
	return d
}

// retire un-admits a packet on the abort path: return its window and quota
// tokens and recycle it. The packet's id stays consumed (submitted is not
// rolled back — ids must stay dense) and so do its tickets, which will never
// be served; that is fine because retire only runs on a dead engine, whose
// workers have stopped consulting tickets and whose results are already
// discarded as Stalled/incomplete.
func (e *Engine) retire(p *packet) {
	p.span = nil
	h := p.h
	h.putPackets(p)
	if h.quota != nil {
		h.quota.release(1)
	}
	e.releaseWindow(1)
}

// Drain ends admission and blocks until every in-flight packet egressed
// (or the watchdog aborted), then joins the workers and returns the run
// summary. After Drain the engine's post-run accessors are valid.
func (e *Engine) Drain() *Result {
	if !e.started {
		return e.result(0, 0)
	}
	submitted := e.submitted.Load()
	e.total.Store(submitted)
	if e.completed.Load() == submitted {
		e.closeDone()
	}
	// Run the backlog out here; if the goroutine holds the baton, leave
	// withdraws want and it runs to the end itself.
	e.runSolo(0)
	e.leave()
	select {
	case <-e.done:
	case <-e.abort:
	}
	close(e.wdStop)
	e.wdWg.Wait()
	close(e.quit)
	e.wg.Wait()
	e.mergeEgressOrder()
	return e.result(submitted, time.Since(e.startT))
}

// mergeEgressOrder stitches the per-worker (seq, id) egress records into
// the global wall-clock egress sequence. Runs after the workers joined —
// the Drain-time half of the sharded egress recording that replaced the
// old global egress mutex.
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

// prepare readies one packet on the admitter: take one the handle readied
// (getPacket), reset its env for the new arrival, execute the handle's
// stateless resolution stages, and resolve every state access to a (stage,
// worker, tickets) visit list. start is the admit stamp, read once per
// admission chunk.
func (e *Engine) prepare(h *Handle, id int64, a *core.Arrival, start time.Time) *packet {
	p := h.getPacket()
	p.id = id
	p.env.ResetFor(a.Fields)
	p.visits = p.visits[:0]
	p.vi = 0
	p.span = nil
	p.tag = 0
	p.start = start
	for si := 0; si < h.prog.ResolutionStages; si++ {
		if err := h.vm.ExecStage(&h.bc.Stages[si], p.env, h.admRegs); err != nil {
			panic("dataplane: " + err.Error()) // envs are h.prog-shaped
		}
	}
	p.nextStage = h.prog.ResolutionStages
	e.resolve(h, p)
	if h.record {
		h.idSeq = append(h.idSeq, id)
	}
	return p
}

// acquireWindow takes up to want admission-window tokens (at least one),
// blocking while the window is full — on a one-driver engine, running the
// driver first and blocking only when that makes no progress. Returns the
// number taken, or 0 when the engine aborted. Admitter-serial — the
// single-acquirer assumption is what makes the CAS loop plus one-slot wakeup
// channel race-free.
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
		// Step until half the window is free: the next chunk is then at
		// least half a window, and the other half stays in flight, so the
		// pipelines never drain to empty between chunks.
		if e.runSolo(e.winCap / 2) {
			continue
		}
		select {
		case <-e.winAvail:
		case <-e.abort:
			return 0
		}
	}
}

// releaseWindow returns n tokens and wakes the admitter if it is waiting
// (a pipeline's finished burst, or abort-retirement).
func (e *Engine) releaseWindow(n int64) {
	e.winUsed.Add(-n)
	e.signalWindow()
}

// signalWindow wakes the admitter if it sleeps on winAvail.
func (e *Engine) signalWindow() {
	select {
	case e.winAvail <- struct{}{}:
	default: // a wakeup is already pending; one is enough
	}
}

// getBatch/putBatch recycle the packet batches riding coalesced xbarMsg
// sends. A sync.Pool is fine here (unlike the per-handle packet free
// lists): losing a batch to GC costs one amortized allocation per chunk,
// not the packet zero-alloc guarantee.
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

// resolveStep is one state access site of a handle's resolve plan
// (resolvePlan): everything resolve needs about the access, flattened at
// load time so the per-packet walk reads one entry per access.
type resolveStep struct {
	sh    *regShard
	reg   int
	stage int
	// first marks the first access of its stage: a new visit starts here.
	first bool
	// dup is set when an earlier access of the same stage names the same
	// register, the only case whose slot may already hold a ticket.
	dup bool
	// pred is the resolvable predicate (a field or a temp; KindNone when
	// the access is unconditional, or its predicate is unresolvable or a
	// constant that holds), neg its inversion. idx is the index operand,
	// read only for sharded arrays.
	pred ir.Operand
	neg  bool
	idx  ir.Operand
}

// resolvePlan flattens prog's access sites, grouped by stage in stage
// order and in declaration order within a stage, into the step list
// resolve walks. Constant predicates are folded here: an access whose
// constant predicate fails never happens and gets no step.
func resolvePlan(prog *ir.Program, shard []regShard) []resolveStep {
	var plan []resolveStep
	for stage := range prog.Stages {
		first := len(plan)
		for i := range prog.Accesses {
			a := &prog.Accesses[i]
			if a.Stage != stage {
				continue
			}
			s := resolveStep{sh: &shard[a.Reg], reg: a.Reg, stage: stage, first: len(plan) == first, idx: a.Idx}
			if a.PredResolvable && !a.Pred.IsNone() {
				if a.Pred.Kind == ir.KindConst {
					if (a.Pred.Val != 0) == a.PredNeg {
						continue
					}
				} else {
					s.pred, s.neg = a.Pred, a.PredNeg
				}
			}
			for _, prev := range plan[first:] {
				s.dup = s.dup || prev.reg == a.Reg
			}
			plan = append(plan, s)
		}
	}
	return plan
}

// resolve performs preemptive address resolution (§3.3) against the
// handle's static placement, walking its resolve plan: evaluate resolvable
// predicates, clamp indices, look up slot owners and slots, stamp one ticket
// per slot, and build the visit list. Same-stage accesses form one visit and
// must co-locate (the code generator guarantees multi-array stages hold
// only unsharded, same-home arrays). Duplicate same-stage references to one
// slot collapse to a single ticket.
func (e *Engine) resolve(h *Handle, p *packet) {
	var v *visit
	for i := range h.plan {
		s := &h.plan[i]
		if s.first {
			v = nil
		}
		if s.pred.Kind != ir.KindNone && (p.env.Load(s.pred) != 0) == s.neg {
			continue // resolved: this access will not happen
		}
		sh := s.sh
		pos := 0
		if sh.sharded {
			pos = ir.ClampIndex(int(p.env.Load(s.idx)), sh.size)
		}
		dest := sh.owner[pos]
		if v == nil {
			// Extend in place when the recycled packet's visit array has
			// room: reslicing (rather than appending a fresh struct)
			// keeps each visit's slots capacity from previous lives.
			if n := len(p.visits); n < cap(p.visits) {
				p.visits = p.visits[:n+1]
				v = &p.visits[n]
				v.stage, v.pipe = s.stage, dest
				v.slots = v.slots[:0]
			} else {
				p.visits = append(p.visits, visit{stage: s.stage, pipe: dest})
				v = &p.visits[n]
			}
		} else if v.pipe != dest {
			panic("dataplane: co-located accesses resolved to different pipelines")
		}
		st := sh.slots[pos]
		if s.dup && v.holds(st) {
			continue
		}
		v.slots = append(v.slots, slotRef{st: st, tk: sh.issue(pos)})
	}
}

// holds reports whether the visit already has a ticket on slot st.
func (v *visit) holds(st *slotState) bool {
	for _, ref := range v.slots {
		if ref.st == st {
			return true
		}
	}
	return false
}

// watchdog aborts the run when no packet egresses for StallTimeout while
// packets are in flight, so a liveness bug fails tests loudly (Stalled)
// instead of hanging them. An idle stream (nothing in flight) is healthy,
// not stalled — essential in streaming mode, where traffic gaps of any
// length are normal.
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
	lat := stats.NewHistogram(latLo, latHi, latBuckets)
	for _, w := range e.workers {
		lat.Merge(w.lat)
	}
	res := &Result{
		Workers:   e.k,
		Injected:  injected,
		Completed: e.completed.Load(),
		Steers:    e.steers.Load(),
		Parks:     e.parks.Load(),
		Wasted:    e.wasted.Load(),
		Stalled:   e.stalled.Load(),
		Elapsed:   elapsed,
		Latency:   lat,
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
// global packet id — the shape equiv.Ref.Verify consumes on a
// single-program engine (where global ids coincide with arrival indices).
// Only valid after Run/Drain, and only when Config.RecordOutputs was set.
// Outputs live in per-worker maps until this merge (no egress lock).
// Multi-program engines verify per handle with OutputsFor.
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

// OutputsFor returns handle h's completed packets' final header fields,
// keyed by the handle's dense per-program arrival index (0..n-1 in h's
// admission order) — the shape the single-pipeline reference keys by, so
// each tenant verifies against its own independent reference. Only valid
// after Drain with Config.RecordOutputs set.
func (e *Engine) OutputsFor(h *Handle) map[int64][]int64 {
	all := e.Outputs()
	if all == nil {
		return nil
	}
	out := make(map[int64][]int64, len(h.idSeq))
	for i, gid := range h.idSeq {
		if f, ok := all[gid]; ok {
			out[int64(i)] = f
		}
	}
	return out
}

// FinalRegs returns the default handle's final register state — see
// FinalRegsFor. Only valid after Run/Drain.
func (e *Engine) FinalRegs() [][]int64 { return e.FinalRegsFor(e.def) }

// FinalRegsFor returns handle h's final register state, assembling each
// index from the worker register file owning its live copy. Only valid
// after Drain.
func (e *Engine) FinalRegsFor(h *Handle) [][]int64 {
	out := make([][]int64, len(h.shard))
	for r := range h.shard {
		sh := &h.shard[r]
		a := make([]int64, sh.size)
		if sh.sharded {
			for i := range a {
				a[i] = h.wregs[sh.owner[i]].Array(r)[i]
			}
		} else {
			copy(a, h.wregs[sh.owner[0]].Array(r))
		}
		out[r] = a
	}
	return out
}

// AccessOrders returns the default handle's per-slot effective access
// order in global packet ids (banzai.AccessLog.Map). On a single-program
// engine global ids coincide with arrival indices, so this is directly
// comparable to equiv.ReferenceOrder. Only valid after Run/Drain, with
// Config.RecordAccessOrder set (nil otherwise). Multi-program engines use
// AccessOrdersFor.
func (e *Engine) AccessOrders() map[string][]int64 { return e.def.log.Map() }

// AccessOrdersFor returns handle h's per-slot effective access order with
// every global packet id remapped to the handle's dense per-program arrival
// index — directly comparable to equiv.ReferenceOrder over the handle's own
// admission trace. Only valid after Drain, with Config.RecordAccessOrder
// set.
func (e *Engine) AccessOrdersFor(h *Handle) map[string][]int64 {
	idx := make(map[int64]int64, len(h.idSeq))
	for i, gid := range h.idSeq {
		idx[gid] = int64(i)
	}
	out := h.log.Map()
	for key, seq := range out {
		m := make([]int64, len(seq))
		for j, gid := range seq {
			m[j] = idx[gid]
		}
		out[key] = m
	}
	return out
}

// EgressOrder returns the wall-clock egress sequence of packet ids (only
// recorded with Config.RecordEgressOrder).
func (e *Engine) EgressOrder() []int64 { return e.egressOrder }

// Stalled reports whether the liveness watchdog aborted the engine. Safe
// to call from any goroutine at any time — the health-probe hook.
func (e *Engine) Stalled() bool { return e.stalled.Load() }

// Workers returns the resolved worker count k.
func (e *Engine) Workers() int { return e.k }

// Submitted returns the number of packets admitted so far across all
// handles (any goroutine).
func (e *Engine) Submitted() int64 { return e.submitted.Load() }

// Completed returns the number of packets egressed so far (any goroutine).
func (e *Engine) Completed() int64 { return e.completed.Load() }

// InFlight returns the number of admitted-but-not-yet-egressed packets,
// bounded by Config.Window (any goroutine).
func (e *Engine) InFlight() int64 { return e.submitted.Load() - e.completed.Load() }

// WindowInUse returns the number of admission-window tokens currently held
// (in-flight packets), safe from any goroutine — the live admission-control
// gauge.
func (e *Engine) WindowInUse() int { return int(e.winUsed.Load()) }

// WindowCap returns the admission-window size.
func (e *Engine) WindowCap() int { return int(e.winCap) }

// WorkerStat is one pipeline's live occupancy/throughput view, in the shape
// the admin plane serves (/stats) and mp5top renders. Mailbox is the crossbar
// messages queued in its driver's mailbox (of capacity MailboxCap) whose
// first packet starts on this pipeline, Parked the packets waiting in slot
// wait rings for their tickets, Processed the packet arrivals (dispatches,
// hops and promotions), Egressed the packets completed on this pipeline, and
// BusyNs cumulative wall time spent handling the messages counted on it (by
// whichever goroutine held the driver's baton) — only accounted while a
// Tracer is attached, 0 otherwise. Parked, Processed and Egressed are
// published once per handled message (Egressed also every doneCap egresses),
// so a live reading trails by at most one message.
type WorkerStat struct {
	ID         int   `json:"id"`
	Mailbox    int   `json:"mailbox"`
	MailboxCap int   `json:"mailbox_cap"`
	Parked     int64 `json:"parked"`
	Processed  int64 `json:"processed"`
	Egressed   int64 `json:"egressed"`
	BusyNs     int64 `json:"busy_ns"`
}

// WorkerStats snapshots every pipeline's live occupancy counters. Safe from
// any goroutine while the engine runs (all fields are atomics).
func (e *Engine) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, e.k)
	for i, w := range e.workers {
		out[i] = WorkerStat{
			ID:         i,
			Mailbox:    int(w.inbox.Load()),
			MailboxCap: cap(w.d.mailbox),
			Parked:     w.parkedN.Load(),
			Processed:  w.processedN.Load(),
			Egressed:   w.egressedN.Load(),
			BusyNs:     w.busyNs.Load(),
		}
	}
	return out
}

// TicketDepths sums the pending (issued-but-unserved) tickets across every
// slot of every handle and reports the deepest single slot — the live D4
// backlog. O(1) per slot and lock-free (two atomic loads), so safe from any
// goroutine. Meaningful only on a live engine: an aborted engine's issued
// tickets are never served, so its depths stay where the abort left them.
func (e *Engine) TicketDepths() (pending, maxDepth int64) {
	for _, h := range e.Handles() {
		for reg := range h.shard {
			sh := &h.shard[reg]
			for i := range sh.slots {
				d := sh.depth(i)
				pending += d
				if d > maxDepth {
					maxDepth = d
				}
			}
		}
	}
	return pending, maxDepth
}

// ShardEntry is one register array's placement, in the shape the admin
// plane serves as JSON.
type ShardEntry struct {
	Reg     int    `json:"reg"`
	Name    string `json:"name"`
	Sharded bool   `json:"sharded"`
	// Owners[i] is the worker holding the live copy of index i; an
	// unsharded array has a single element, the whole-array home.
	Owners []int `json:"owners"`
}

// ShardMap copies the default handle's index→worker ownership — see
// ShardMapFor.
func (e *Engine) ShardMap() []ShardEntry { return e.ShardMapFor(e.def) }

// ShardMapFor copies the index→worker ownership of every register array of
// handle h. Placement is fixed when the handle is built, so it is safe from
// any goroutine at any time, with no lock.
func (e *Engine) ShardMapFor(h *Handle) []ShardEntry {
	out := make([]ShardEntry, len(h.shard))
	for r := range h.shard {
		out[r] = ShardEntry{
			Reg:     r,
			Name:    h.prog.Regs[r].Name,
			Sharded: h.shard[r].sharded,
			Owners:  append([]int(nil), h.shard[r].owner...),
		}
	}
	return out
}
