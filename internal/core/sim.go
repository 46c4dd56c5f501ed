package core

import (
	"cmp"
	"fmt"
	"slices"

	"mp5/internal/banzai"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
	"mp5/internal/sharding"
	"mp5/internal/stats"
)

// accessKey identifies one register slot: a resolved access's sharded index
// or whole unsharded array (idx = -1), or an executed access's clamped index.
type accessKey struct {
	reg int
	idx int
}

// phantomEv is a scheduled phantom-channel delivery (Invariant 1: phantoms
// are never queued before their destination stage, so delivery time is
// generation time plus the stage distance) of packet pkt's phantom for its
// visit vi, generated in pipeline srcPipe.
type phantomEv struct {
	pkt     *Packet
	vi      int
	srcPipe int
}

// crossEv is a data packet in flight across an inter-pipeline link.
type crossEv struct {
	stage int
	pkt   *Packet
}

// stageState is the per-(stage, pipeline) runtime state.
type stageState struct {
	// inline is the packet delivered this cycle on the pass-through
	// path (same pipeline, no state access here).
	inline *Packet
	// out is the packet emitted by this stage this cycle, delivered to
	// the next stage at the start of the next cycle.
	out *Packet
	// fifo buffers stateful visitors (nil for stateless stages and in
	// ideal mode).
	fifo *StageFIFO
	// idealQ replaces the FIFO in ideal mode, kept in ascending id order:
	// selection is by per-index eligibility instead of a single logical
	// FIFO.
	idealQ []*Packet
}

// pktQueue is an amortized O(1) FIFO of packets.
type pktQueue struct {
	items []*Packet
	head  int
}

func (q *pktQueue) len() int { return len(q.items) - q.head }
func (q *pktQueue) push(p *Packet) {
	q.items = append(q.items, p)
}
func (q *pktQueue) pop() *Packet {
	p := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head > 1024 && q.head*2 > len(q.items) {
		// Compact in place: the backing array keeps its capacity, so
		// push does not regrow it.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return p
}
func (q *pktQueue) peek() *Packet { return q.items[q.head] }

// recircEntry is a packet waiting to re-enter a pipeline input.
type recircEntry struct {
	p     *Packet
	ready int64
}

// Simulator is a deterministic cycle-accurate model of one MP5 (or
// baseline) switch instance running one compiled program.
type Simulator struct {
	cfg  Config
	prog *ir.Program
	k    int // pipelines
	S    int // stages
	// resStage is the final address-resolution stage (phantom
	// generation happens when a packet is processed there).
	resStage int

	shard *sharding.Map
	regs  []*ir.RegFile
	st    [][]stageState // [stage][pipe]

	// bc and vm are the bytecode-compiled program and the VM that runs it.
	bc *bytecode.Program
	vm *bytecode.VM

	// phantoms and crossings are cyclic schedules indexed by delivery
	// cycle modulo their length; delays are bounded by the pipeline
	// depth plus the crossbar latency, so a slot always drains before
	// it is reused (and its backing array is recycled).
	phantoms  [][]phantomEv
	crossings [][]crossEv
	// pendingInserts holds data packets that arrived at their visit
	// stage while its phantom was still on the (slower) phantom channel
	// (possible only with CrossLatency > 0); they retry every cycle in id
	// order. retry is the previous cycle's batch, kept for its backing
	// array.
	pendingInserts []*Packet
	retry          []*Packet

	ingress     pktQueue      // global ingress (sprayed architectures)
	pipeIngress []pktQueue    // per-pipe ingress (recirculation)
	pipeRecirc  []pktQueue    // per-pipe recirculation queue (priority)
	recircWait  []recircEntry // packets between pipeline passes

	// pending holds, under ArchIdeal only, every register slot's resolved
	// and not yet served packet ids in ascending order: the per-index
	// eligibility fronts. An unsharded array's marker (-1) uses slot 0.
	pending *banzai.AccessLog

	// live counts every entity still inside the switch: data packets
	// from ingress admission to egress or abandonment, plus phantom
	// placeholders from scheduling to consumption, so the drained check
	// is O(1).
	live int64
	// occ[i] is the number of entries (inline packets, FIFO entries
	// including phantom placeholders, ideal-queue packets) currently in
	// stage i across all pipelines; processStages skips stages at zero.
	occ []int
	// outCnt[i] is the number of pipelines of stage i holding an emitted
	// packet; deliverOutputs skips stages at zero.
	outCnt []int
	// work records whether the current cycle mutated simulator state; a
	// workless cycle proves every cycle until the next scheduled event
	// is workless too, so Run fast-forwards s.now instead of stepping.
	work bool
	// sprayNext is the pipeline the uniform spray (D1) considers first on
	// the next admission cycle. Starting every cycle at pipe 0 would bias
	// sub-line-rate traffic toward the low pipelines; rotating the start
	// keeps per-pipe admissions near-uniform as §3.1 assumes.
	sprayNext int
	// fullSweep disables the occupancy skip lists and the idle
	// fast-forward, restoring the pre-event-driven per-cycle sweeps.
	// Testing aid: the equivalence gate runs both schedulers and
	// compares event streams, results, and outputs bit for bit.
	fullSweep bool

	// freePkts holds egressed packets for newPacket to reuse. Nothing
	// refers to a packet once it has left the last stage: every phantom
	// event and FIFO entry that points at it was consumed on the way
	// (egress asserts phantomsLeft == 0), and recorded outputs are copies.
	freePkts []*Packet

	// order is the recorded per-slot effective access order
	// (RecordAccessOrder).
	order *banzai.AccessLog
	// outIDs and outs record every egressed packet's final header fields
	// (RecordOutputs): packet outIDs[i]'s fields are the i-th run of
	// len(prog.Fields) words in outs.
	outIDs      []int64
	outs        []int64
	egressOrder []int64
	latencies   []int64

	// guards lists, per stage, the predicates of its stateful
	// instructions, for counting wasted visits.
	guards []stageGuards
	// logAccesses is set when executed accesses are logged (order) or
	// traced (EvAccess). accs then collects one stage execution's distinct
	// slots, through obs, the observer bound once at construction, on a
	// stage whose accesses are not known up front.
	logAccesses bool
	accs        []accessKey
	obs         ir.AccessObserver

	res Result
	now int64
}

// NewSimulator builds a simulator for an MP5-compiled program (the program
// must carry access metadata, i.e. compiled with TargetMP5 — baselines also
// consume that metadata for steering and state placement).
func NewSimulator(prog *ir.Program, cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	if err := prog.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid program: %v", err))
	}
	if len(prog.Accesses) > 0 && prog.ResolutionStages == 0 {
		panic("core: stateful program lacks resolution stages; compile with TargetMP5")
	}
	s := &Simulator{
		cfg:       cfg,
		prog:      prog,
		k:         cfg.Pipelines,
		S:         prog.NumStages(),
		resStage:  prog.ResolutionStages - 1,
		shard:     sharding.New(prog, cfg.Pipelines, cfg.shardPolicy(), cfg.Seed),
		phantoms:  make([][]phantomEv, prog.NumStages()+int(cfg.CrossLatency)+2),
		crossings: make([][]crossEv, cfg.CrossLatency+2),
		bc:        bytecode.MustCompile(prog),
	}
	s.vm = bytecode.NewVM(s.bc)
	s.regs = make([]*ir.RegFile, s.k)
	for j := 0; j < s.k; j++ {
		s.regs[j] = ir.NewRegFile(prog)
	}
	s.st = make([][]stageState, s.S)
	s.occ = make([]int, s.S)
	s.outCnt = make([]int, s.S)
	stateful := make([]bool, s.S)
	for _, a := range prog.Accesses {
		stateful[a.Stage] = true
	}
	s.guards = make([]stageGuards, s.S)
	for i := range s.guards {
		s.guards[i] = guardsOf(prog.Stages[i].Instrs)
	}
	for i := range s.st {
		s.st[i] = make([]stageState, s.k)
		if stateful[i] && cfg.Arch != ArchIdeal && cfg.Arch != ArchRecirc {
			for j := range s.st[i] {
				s.st[i][j].fifo = NewStageFIFO(s.k, cfg.FIFOCap)
			}
		}
	}
	if cfg.Arch == ArchRecirc {
		s.pipeIngress = make([]pktQueue, s.k)
		s.pipeRecirc = make([]pktQueue, s.k)
	}
	if cfg.RecordAccessOrder {
		s.order = banzai.NewAccessLog(prog)
	}
	if cfg.Arch == ArchIdeal {
		s.pending = banzai.NewAccessLog(prog)
	}
	s.logAccesses = cfg.RecordAccessOrder || cfg.Trace != nil
	s.obs = s.observe
	s.res.Arch = cfg.Arch
	s.res.Pipelines = s.k
	s.res.MaxFIFOPerStage = make([]int, s.S)
	return s
}

// usePhantoms reports whether the architecture enforces D4 via phantoms.
func (s *Simulator) usePhantoms() bool {
	switch s.cfg.Arch {
	case ArchMP5, ArchNaive, ArchStaticShard:
		return true
	}
	return false
}

// Run executes the simulation over the arrival trace (must be sorted by
// Cycle, ties by Port) and returns the result summary.
func (s *Simulator) Run(arrivals []Arrival) *Result {
	for i := 1; i < len(arrivals); i++ {
		a, b := arrivals[i-1], arrivals[i]
		if b.Cycle < a.Cycle || (b.Cycle == a.Cycle && b.Port < a.Port) {
			panic("core: arrival trace not sorted by (cycle, port)")
		}
	}
	s.res.Injected = int64(len(arrivals))
	s.egressOrder = slices.Grow(s.egressOrder, len(arrivals))
	s.latencies = slices.Grow(s.latencies, len(arrivals))
	if s.cfg.RecordOutputs {
		s.outIDs = slices.Grow(s.outIDs, len(arrivals))
		s.outs = slices.Grow(s.outs, len(arrivals)*len(s.prog.Fields))
	}
	if len(arrivals) > 0 {
		s.res.FirstArrival = arrivals[0].Cycle
		s.res.LastArrival = arrivals[len(arrivals)-1].Cycle
		s.now = arrivals[0].Cycle
	}
	// A run past this generous bound is stuck; it ends Stalled.
	maxCycles := s.res.LastArrival + 100000 + s.res.Injected*int64(4*s.S+8)

	ai := 0
	for {
		// live is maintained at admit, schedule, consume, egress, and
		// abandon sites; zero means every queue, slot and schedule is empty.
		if ai == len(arrivals) && s.live == 0 {
			break
		}
		if s.now > maxCycles {
			s.res.Stalled = true
			break
		}
		s.work = false
		s.deliverPhantoms()
		s.deliverCrossings()
		s.deliverOutputs()
		ai = s.admitArrivals(arrivals, ai)
		s.processStages()
		s.maybeRemap()
		if s.work || s.fullSweep {
			s.now++
		} else {
			// Nothing changed this cycle, so nothing can change until
			// the next scheduled event: every per-cycle behaviour is a
			// function of simulator state (unchanged) and of s.now only
			// through the event schedules accounted for below.
			s.now = s.nextEventCycle(arrivals, ai, maxCycles)
		}
	}
	s.finalize()
	return &s.res
}

// SetFullSweep forces the legacy scheduler: visit every (stage, pipeline)
// slot every cycle and never fast-forward across workless cycles. The
// observable behaviour (events, results, outputs, state) is identical to
// the event-driven scheduler by construction; tests compare the two and the
// benchmark prices it. Must be called before Run.
func (s *Simulator) SetFullSweep(on bool) { s.fullSweep = on }

// nextEventCycle returns the earliest future cycle at which anything can
// happen: the next due arrival, the next scheduled phantom or crossing
// delivery, the next recirculation re-entry, or the next dynamic-sharding
// boundary (Remap mutates its counters even when the switch is quiet).
// With no event pending it jumps to maxCycles+1, which the loop head turns
// into the same stalled result the per-cycle scheduler would reach.
func (s *Simulator) nextEventCycle(arrivals []Arrival, ai int, maxCycles int64) int64 {
	next := maxCycles + 1
	consider := func(c int64) {
		if c > s.now && c < next {
			next = c
		}
	}
	if ai < len(arrivals) {
		consider(arrivals[ai].Cycle)
	}
	// The cyclic schedules hold at most one delivery per slot and drain
	// before slot reuse, so a non-empty slot maps to exactly one future
	// cycle within one wrap of the schedule.
	n := int64(len(s.phantoms))
	for slot := range s.phantoms {
		if len(s.phantoms[slot]) > 0 {
			d := (int64(slot) - s.now%n + n) % n
			if d == 0 {
				d = n
			}
			consider(s.now + d)
		}
	}
	n = int64(len(s.crossings))
	for slot := range s.crossings {
		if len(s.crossings[slot]) > 0 {
			d := (int64(slot) - s.now%n + n) % n
			if d == 0 {
				d = n
			}
			consider(s.now + d)
		}
	}
	for i := range s.recircWait {
		consider(s.recircWait[i].ready)
	}
	if s.cfg.dynamicSharding() {
		consider(s.now - s.now%s.cfg.RemapInterval + s.cfg.RemapInterval)
	}
	if next <= s.now {
		next = s.now + 1 // defensive: never stall the clock
	}
	return next
}

// deliverPhantoms lands phantom-channel deliveries scheduled for this cycle
// (before data deliveries, so inserts find their placeholders), then
// retries data packets that had outrun their phantoms.
func (s *Simulator) deliverPhantoms() {
	slot := int(s.now % int64(len(s.phantoms)))
	if evs := s.phantoms[slot]; len(evs) > 0 {
		s.phantoms[slot] = evs[:0]
		s.work = true
		for _, ev := range evs {
			p := ev.pkt
			v := &p.visits[ev.vi]
			st := &s.st[v.stage][v.pipe]
			if seq, ok := st.fifo.PushPhantom(ev.srcPipe, p, s.now); ok {
				v.phantom, v.fifo, v.seq = phantomQueued, int32(ev.srcPipe), seq
				s.occ[v.stage]++
				s.emit(EvPhantom, p.ID, v.stage, v.pipe)
			} else {
				v.phantom = phantomGone
				s.res.DroppedPhantom++
				s.emit(EvPhantomDrop, p.ID, v.stage, v.pipe)
				s.phantomConsumed(p)
			}
			s.noteFIFODepth(v.stage, st)
		}
	}
	if len(s.pendingInserts) > 0 {
		// Swap batches first: a retry that is still early re-parks
		// itself. Retries go in packet-id order (a packet parks at one
		// stage at a time), which fixes the order of same-cycle
		// insert/drop events.
		retry := s.pendingInserts
		s.pendingInserts = s.retry[:0]
		slices.SortFunc(retry, func(a, b *Packet) int { return cmp.Compare(a.ID, b.ID) })
		for _, p := range retry {
			s.arriveAtVisit(p, p.pendingVisit().stage)
		}
		clear(retry)
		s.retry = retry[:0]
	}
}

// phantomConsumed retires one of packet p's outstanding phantom
// placeholders (successful insert, push overflow, or dead pop).
func (s *Simulator) phantomConsumed(p *Packet) {
	s.live--
	p.phantomsLeft--
}

// deliverCrossings lands data packets whose inter-pipeline link traversal
// (Config.CrossLatency) completes this cycle.
func (s *Simulator) deliverCrossings() {
	slot := int(s.now % int64(len(s.crossings)))
	evs := s.crossings[slot]
	if len(evs) == 0 {
		return
	}
	s.crossings[slot] = evs[:0]
	s.work = true
	for _, ev := range evs {
		s.arriveAtVisit(ev.pkt, ev.stage)
	}
}

// deliverOutputs moves every stage's emitted packet into the next stage
// (crossbar steering happens here) or to egress.
func (s *Simulator) deliverOutputs() {
	for i := s.S - 1; i >= 0; i-- {
		if s.outCnt[i] == 0 && !s.fullSweep {
			continue
		}
		for j := 0; j < s.k; j++ {
			st := &s.st[i][j]
			if st.out == nil {
				continue
			}
			p := st.out
			st.out = nil
			s.outCnt[i]--
			s.work = true
			s.route(p, i+1)
		}
	}
}

// route places packet p into stage (or egress when stage == S).
func (s *Simulator) route(p *Packet, stage int) {
	if stage == s.S {
		s.egress(p)
		return
	}
	if s.cfg.Arch == ArchRecirc {
		// No crossbar: the packet continues in its pipeline.
		st := &s.st[stage][p.pipe]
		if st.inline != nil {
			panic("core: inline slot collision (recirc)")
		}
		st.inline = p
		s.occ[stage]++
		return
	}
	if v := p.visitAt(stage); v != nil {
		crossing := v.pipe != p.pipe
		p.srcPipe = p.pipe
		p.pipe = v.pipe
		if crossing {
			s.emit(EvSteer, p.ID, stage, v.pipe)
		}
		if crossing && s.cfg.CrossLatency > 0 {
			slot := int((s.now + s.cfg.CrossLatency) % int64(len(s.crossings)))
			s.crossings[slot] = append(s.crossings[slot], crossEv{stage: stage, pkt: p})
			return
		}
		s.arriveAtVisit(p, stage)
		return
	}
	st := &s.st[stage][p.pipe]
	if st.inline != nil {
		panic("core: inline slot collision")
	}
	st.inline = p
	s.occ[stage]++
}

// arriveAtVisit lands a data packet at its stateful visit stage: ECN
// marking, then the architecture's buffering discipline. With a slow
// crossbar a packet can beat its phantom here; it parks until the
// placeholder lands or is known dropped.
func (s *Simulator) arriveAtVisit(p *Packet, stage int) {
	st := &s.st[stage][p.pipe]
	if th := s.cfg.ECNThreshold; th > 0 {
		depth := len(st.idealQ)
		if st.fifo != nil {
			depth = st.fifo.Len()
		}
		if depth > th && !p.ecnMarked {
			s.res.MarkedECN++
			p.ecnMarked = true
			s.work = true
		}
	}
	switch s.cfg.Arch {
	case ArchMP5NoD4:
		s.work = true
		if st.fifo.PushData(p.srcPipe, p, s.now) {
			s.occ[stage]++
			s.emit(EvEnqueue, p.ID, stage, p.pipe)
		} else {
			s.res.DroppedData++
			s.abandon(p, CauseData)
		}
	case ArchIdeal:
		i, _ := slices.BinarySearchFunc(st.idealQ, p.ID, func(q *Packet, id int64) int {
			return cmp.Compare(q.ID, id)
		})
		st.idealQ = slices.Insert(st.idealQ, i, p)
		s.occ[stage]++
		s.work = true
		s.emit(EvEnqueue, p.ID, stage, p.pipe)
		if d := len(st.idealQ); d > s.res.MaxFIFOPerStage[stage] {
			s.res.MaxFIFOPerStage[stage] = d
			if d > s.res.MaxFIFODepth {
				s.res.MaxFIFODepth = d
			}
		}
	default:
		switch v := p.pendingVisit(); v.phantom {
		case phantomQueued:
			// The data packet replaces its placeholder in place:
			// stage occupancy is unchanged, the phantom is consumed.
			st.fifo.Insert(int(v.fifo), v.seq, p, s.now)
			v.phantom = phantomGone
			s.work = true
			s.phantomConsumed(p)
			s.emit(EvEnqueue, p.ID, stage, p.pipe)
		case phantomInFlight:
			// The phantom is still on the (slower) phantom
			// channel — only possible with CrossLatency > 0: wait
			// in the crossbar buffer. Re-parking a retried packet
			// is not work — nothing can change until its
			// phantom's scheduled delivery.
			if !p.parked {
				p.parked = true
				s.res.ParkedEarly++
			}
			s.pendingInserts = append(s.pendingInserts, p)
		default:
			// The phantom overflowed its sub-FIFO.
			s.work = true
			s.res.DroppedInsert++
			s.abandon(p, CauseInsert)
		}
	}
	s.noteFIFODepth(stage, st)
}

func (s *Simulator) noteFIFODepth(stage int, st *stageState) {
	if st.fifo == nil {
		return
	}
	if d := st.fifo.Len(); d > s.res.MaxFIFOPerStage[stage] {
		s.res.MaxFIFOPerStage[stage] = d
		if d > s.res.MaxFIFODepth {
			s.res.MaxFIFODepth = d
		}
	}
}

// admitArrivals moves due arrivals into ingress queues and fills free
// stage-0 slots (one packet per pipeline per cycle).
func (s *Simulator) admitArrivals(arrivals []Arrival, ai int) int {
	for ai < len(arrivals) && arrivals[ai].Cycle <= s.now {
		a := &arrivals[ai]
		p := s.newPacket(int64(ai), a)
		s.work = true
		if s.cfg.Arch == ArchRecirc {
			pipe := a.Port * s.k / s.cfg.Ports
			if pipe >= s.k {
				pipe = s.k - 1
			}
			if cap := s.cfg.RecircIngressCap; cap > 0 && s.pipeIngress[pipe].len() >= cap {
				// Ingress buffer overflow: today's switches
				// drop rather than queue without bound.
				s.res.DroppedIngress++
				s.emitDrop(p.ID, -1, pipe, CauseIngress)
			} else {
				p.pipe = pipe
				s.pipeIngress[pipe].push(p)
				s.live++
			}
		} else {
			s.ingress.push(p)
			s.live++
		}
		ai++
	}
	if s.cfg.Arch == ArchRecirc {
		// Re-admit recirculated packets whose delay elapsed. The
		// recirculation port has priority over fresh arrivals, as on
		// production switches — otherwise re-circulated packets sit
		// behind an ever-growing arrival backlog.
		kept := s.recircWait[:0]
		for _, e := range s.recircWait {
			if e.ready <= s.now {
				s.pipeRecirc[e.p.pipe].push(e.p)
				s.work = true
			} else {
				kept = append(kept, e)
			}
		}
		s.recircWait = kept
		for j := 0; j < s.k; j++ {
			q := &s.pipeIngress[j]
			if d := q.len() + s.pipeRecirc[j].len(); d > s.res.MaxIngressDepth {
				s.res.MaxIngressDepth = d
			}
			if s.st[0][j].inline != nil {
				continue
			}
			switch {
			case s.pipeRecirc[j].len() > 0:
				s.st[0][j].inline = s.pipeRecirc[j].pop()
				s.occ[0]++
				s.work = true
				s.emit(EvAdmit, s.st[0][j].inline.ID, 0, j)
			case q.len() > 0:
				s.st[0][j].inline = q.pop()
				s.occ[0]++
				s.work = true
				s.emit(EvAdmit, s.st[0][j].inline.ID, 0, j)
			}
		}
		return ai
	}
	if d := s.ingress.len(); d > s.res.MaxIngressDepth {
		s.res.MaxIngressDepth = d
	}
	// Uniform spray (D1): free pipelines pick up arrivals in order,
	// round-robin from where the previous admission cycle left off.
	start := s.sprayNext
	for t := 0; t < s.k && s.ingress.len() > 0; t++ {
		j := (start + t) % s.k
		if s.st[0][j].inline == nil {
			p := s.ingress.pop()
			p.pipe = j
			s.st[0][j].inline = p
			s.occ[0]++
			s.work = true
			s.emit(EvAdmit, p.ID, 0, j)
			s.sprayNext = (j + 1) % s.k
		}
	}
	return ai
}

// newPacket builds the in-flight record of arrival a, reusing an egressed
// packet (its env and its visit-list backing arrays) when one is free: a
// line-rate run otherwise allocates three objects per packet and spends a
// fifth of its time collecting them.
func (s *Simulator) newPacket(id int64, a *Arrival) *Packet {
	var p *Packet
	if n := len(s.freePkts); n > 0 {
		p, s.freePkts = s.freePkts[n-1], s.freePkts[:n-1]
		*p = Packet{Env: p.Env, visits: p.visits[:0], accsBuf: p.accsBuf[:0]}
		p.Env.ResetFor(a.Fields)
	} else {
		p = &Packet{Env: ir.NewEnv(s.prog)}
		copy(p.Env.Fields, a.Fields)
	}
	p.ID, p.Port, p.Size, p.ArrivalCycle = id, a.Port, a.Size, a.Cycle
	return p
}

// processStages runs every (stage, pipeline) slot for one cycle: serve at
// most one packet — the inline pass-through packet if present (Invariant 2:
// stateless packets are never queued and take priority), else an eligible
// queued stateful packet.
func (s *Simulator) processStages() {
	for i := 0; i < s.S; i++ {
		if s.occ[i] == 0 && !s.fullSweep {
			continue // no inline packet, FIFO entry, or ideal-queue entry
		}
		for j := 0; j < s.k; j++ {
			s.processSlot(i, j)
		}
	}
}

func (s *Simulator) processSlot(stage, pipe int) {
	st := &s.st[stage][pipe]
	if s.cfg.Arch == ArchRecirc {
		s.processRecircSlot(stage, pipe, st)
		return
	}

	// Starvation guard (§3.4): drop an incoming truly-stateless packet
	// in favour of a long-waiting queued stateful packet.
	if st.inline != nil && s.cfg.StarveThreshold > 0 && st.fifo != nil && st.inline.stateless() {
		if h, _, ok := st.fifo.Head(); ok && !h.isPhantom() && s.now-h.enq > s.cfg.StarveThreshold {
			s.res.DroppedStarved++
			s.abandon(st.inline, CauseStarved)
			st.inline = nil
			s.occ[stage]--
			s.work = true
		}
	}

	var serve *Packet
	fromQueue := false
	switch {
	case st.inline != nil:
		serve = st.inline
		st.inline = nil
		s.occ[stage]--
	case s.cfg.Arch == ArchIdeal && len(st.idealQ) > 0:
		serve = s.popIdeal(st)
		fromQueue = serve != nil
		if fromQueue {
			s.occ[stage]--
		}
	case st.fifo != nil:
		for {
			h, fi, ok := st.fifo.Head()
			if !ok {
				break
			}
			if h.isPhantom() {
				if h.owner.dead {
					// The awaited packet was dropped
					// upstream: clear the placeholder.
					// (PopHead zeroes the slot h points at,
					// so retire the popped copy's owner.)
					dead := st.fifo.PopHead(fi)
					s.occ[stage]--
					s.work = true
					s.res.DeadPhantomPops++
					s.phantomConsumed(dead.owner)
					continue
				}
				break // D4: block until the data packet arrives
			}
			e := st.fifo.PopHead(fi)
			s.occ[stage]--
			serve = e.data
			fromQueue = true
			break
		}
	}
	if serve == nil {
		return
	}
	s.work = true
	s.emit(EvExec, serve.ID, stage, pipe)
	if fromQueue {
		s.accountVisitExecution(serve, stage)
	}
	s.execStage(serve, stage, pipe)
	if fromQueue {
		s.completeVisit(serve, stage)
	}
	if stage == s.resStage && !serve.resolved {
		s.resolve(serve, pipe)
	}
	st.out = serve
	s.outCnt[stage]++
}

// execStage runs one stage's instructions for packet p on pipeline pipe on
// the bytecode VM. When accesses are logged or traced, it collects the
// stage's effective accesses — predicate held, index clamped, each slot once
// — the rule banzai.Machine logs the reference order by, and appends p to
// each slot's order and emits one EvAccess per slot. A stable stage
// (bytecode.StageProgram.Stable) takes them up front from its compiled
// sites and runs unobserved; any other runs with the observer attached.
func (s *Simulator) execStage(p *Packet, stage, pipe int) {
	sp := &s.bc.Stages[stage]
	if err := sp.Fit(p.Env); err != nil {
		panic("core: " + err.Error()) // envs are s.prog-shaped
	}
	frame := p.Env.Frame
	sites := sp.Sites()
	if !s.logAccesses || len(sites) == 0 {
		s.vm.Run(sp, frame, s.regs[pipe], nil)
		return
	}
	s.accs = s.accs[:0]
	var obs ir.AccessObserver
	if sp.Stable() {
		for i := range sites {
			if site := &sites[i]; site.Held(frame) {
				s.observe(site.Reg, frame[site.Idx], false)
			}
		}
	} else {
		obs = s.obs
	}
	s.vm.Run(sp, frame, s.regs[pipe], obs)
	for _, a := range s.accs {
		if s.order != nil {
			s.order.Append(a.reg, a.idx, p.ID)
		}
		if s.cfg.Trace != nil {
			s.cfg.Trace(Event{
				Cycle: s.now, Kind: EvAccess, PktID: p.ID,
				Stage: stage, Pipe: pipe, Reg: a.reg, Idx: a.idx,
			})
		}
	}
}

// observe adds one executed access to the stage's distinct slots (accs).
func (s *Simulator) observe(reg int, idx int64, _ bool) {
	key := accessKey{reg, ir.ClampIndex(int(idx), s.prog.Regs[reg].Size)}
	if !slices.Contains(s.accs, key) {
		s.accs = append(s.accs, key)
	}
}

// stageGuards summarizes the predicates of one stage's stateful
// instructions: always when one of them is unpredicated, else each one's
// (Pred, PredNeg).
type stageGuards struct {
	always bool
	preds  []stageGuard
}

type stageGuard struct {
	pred ir.Operand
	neg  bool
}

func guardsOf(instrs []ir.Instr) stageGuards {
	var g stageGuards
	for i := range instrs {
		in := &instrs[i]
		switch {
		case !in.Op.IsStateful():
		case in.Pred.IsNone():
			return stageGuards{always: true}
		default:
			g.preds = append(g.preds, stageGuard{in.Pred, in.PredNeg})
		}
	}
	return g
}

// accountVisitExecution counts conservative-phantom visits whose stateful
// work is predicated off (§3.3's wasted cycle).
func (s *Simulator) accountVisitExecution(p *Packet, stage int) {
	g := &s.guards[stage]
	if g.always {
		return
	}
	for _, c := range g.preds {
		if (p.Env.Load(c.pred) != 0) != c.neg {
			return
		}
	}
	s.res.WastedVisits++
}

// completeVisit finishes the packet's pending visit at this stage:
// in-flight counters drop, eligibility fronts pop.
func (s *Simulator) completeVisit(p *Packet, stage int) {
	v := p.pendingVisit()
	if v == nil || v.stage != stage {
		panic("core: queued packet served at wrong stage")
	}
	for _, a := range v.accs {
		s.shard.NoteDone(a.reg, a.idx)
		if s.cfg.Arch == ArchIdeal {
			s.popPending(a.reg, a.idx, p.ID)
		}
	}
	p.nextVisit++
}

// popIdeal selects, among queued packets, the smallest-id packet whose every
// access is at the front of its per-index pending order (per-index order
// enforcement with no head-of-line blocking — the ideal design of §3.5.2).
func (s *Simulator) popIdeal(st *stageState) *Packet {
	for i, p := range st.idealQ {
		if s.atFronts(p) {
			st.idealQ = slices.Delete(st.idealQ, i, i+1)
			return p
		}
	}
	return nil
}

// atFronts reports whether p's pending visit heads every list it is in.
func (s *Simulator) atFronts(p *Packet) bool {
	for _, a := range p.pendingVisit().accs {
		if q := *s.pendingSlot(a.reg, a.idx); len(q) == 0 || q[0] != p.ID {
			return false
		}
	}
	return true
}

// pendingSlot returns the eligibility list of register reg's slot idx.
func (s *Simulator) pendingSlot(reg, idx int) *[]int64 {
	return s.pending.Slot(reg, maxIdx(idx))
}

// popPending removes id from the front of a slot's eligibility list.
func (s *Simulator) popPending(reg, idx int, id int64) {
	q := s.pendingSlot(reg, idx)
	if len(*q) == 0 || (*q)[0] != id {
		panic("core: ideal eligibility order corrupted")
	}
	*q = (*q)[1:]
}

// removePending removes id from anywhere in a slot's list (drop path).
func (s *Simulator) removePending(reg, idx int, id int64) {
	q := s.pendingSlot(reg, idx)
	if i := slices.Index(*q, id); i >= 0 {
		*q = slices.Delete(*q, i, i+1)
	}
}

// resolve performs preemptive address resolution for packet p (processed in
// the final resolution stage of pipeline pipe): evaluate resolvable
// predicates, clamp indices, look up the index-to-pipeline map, bump
// counters, build the visit list, and emit phantoms over the phantom
// channel (one per stateful stage visit).
func (s *Simulator) resolve(p *Packet, pipe int) {
	p.resolved = true
	s.emit(EvResolve, p.ID, s.resStage, pipe)
	if n := len(s.prog.Accesses); n > 0 {
		// One flat allocation each for the visit list and the access
		// records; same-stage access groups sub-slice accsBuf (which
		// never reallocates, so the sub-slices stay valid).
		if cap(p.accsBuf) < n { // a recycled packet brings its own
			p.visits = make([]visit, 0, n)
			p.accsBuf = make([]visitAcc, 0, n)
		}
	}
	for ai := range s.prog.Accesses {
		a := &s.prog.Accesses[ai]
		if a.PredResolvable && !a.Pred.IsNone() {
			truth := p.Env.Load(a.Pred) != 0
			if truth == a.PredNeg {
				continue // resolved: this access will not happen
			}
		}
		idx := -1
		if s.shard.Sharded(a.Reg) {
			idx = ir.ClampIndex(int(p.Env.Load(a.Idx)), s.prog.Regs[a.Reg].Size)
		}
		dest := s.shard.PipeOf(a.Reg, maxIdx(idx))
		s.shard.NoteResolved(a.Reg, maxIdx(idx))
		p.accsBuf = append(p.accsBuf, visitAcc{reg: a.Reg, idx: idx})
		n := len(p.visits)
		if n > 0 && p.visits[n-1].stage == a.Stage {
			if p.visits[n-1].pipe != dest {
				panic("core: co-located accesses resolved to different pipelines")
			}
			p.visits[n-1].accs = p.accsBuf[len(p.accsBuf)-len(p.visits[n-1].accs)-1:]
		} else {
			p.visits = append(p.visits, visit{
				stage: a.Stage, pipe: dest,
				accs: p.accsBuf[len(p.accsBuf)-1:],
			})
		}
		if s.cfg.Arch == ArchIdeal {
			s.insertPending(a.Reg, idx, p.ID)
		}
	}
	if s.usePhantoms() {
		for vi := range p.visits {
			// With a slow crossbar (CrossLatency > 0) every phantom
			// takes the worst-case path — the phantom channel is
			// pipelined to constant depth — so phantoms still land
			// in generation order globally. A same-pipe phantom
			// arriving "late" only parks its (earlier) data packet
			// briefly; a crossing phantom arriving after another
			// flow's service would break C1.
			v := &p.visits[vi]
			at := s.now + int64(v.stage-s.resStage) + s.cfg.CrossLatency
			slot := int(at % int64(len(s.phantoms)))
			s.phantoms[slot] = append(s.phantoms[slot], phantomEv{pkt: p, vi: vi, srcPipe: pipe})
			v.phantom = phantomInFlight
			s.live++
			p.phantomsLeft++
		}
	}
}

// insertPending inserts id into a slot's list keeping ascending order
// (resolutions of different pipelines can interleave within a cycle).
func (s *Simulator) insertPending(reg, idx int, id int64) {
	q := s.pendingSlot(reg, idx)
	i := len(*q)
	for i > 0 && (*q)[i-1] > id {
		i--
	}
	*q = slices.Insert(*q, i, id)
}

// maxIdx maps the array-level marker (-1) to slot 0 for the sharding map.
func maxIdx(idx int) int {
	if idx < 0 {
		return 0
	}
	return idx
}

// abandon drops packet p mid-flight: releases its in-flight counters,
// eligibility entries, and marks it dead so its phantom placeholders get
// cleared instead of blocking forever.
func (s *Simulator) abandon(p *Packet, cause DropCause) {
	s.emitDrop(p.ID, -1, p.pipe, cause)
	for vi := p.nextVisit; vi < len(p.visits); vi++ {
		for _, a := range p.visits[vi].accs {
			s.shard.NoteDone(a.reg, a.idx)
			if s.cfg.Arch == ArchIdeal {
				s.removePending(a.reg, a.idx, p.ID)
			}
		}
	}
	p.nextVisit = len(p.visits)
	p.dead = true
	s.live--
}

// processRecircSlot models a legacy pipeline stage: strictly inline, one
// packet per cycle, executing only the not-yet-executed stage span and
// freezing when the needed state lives in another pipeline.
func (s *Simulator) processRecircSlot(stage, pipe int, st *stageState) {
	p := st.inline
	if p == nil {
		return
	}
	st.inline = nil
	s.occ[stage]--
	s.work = true
	s.emit(EvExec, p.ID, stage, pipe)
	if !p.frozen && stage >= p.resumeStage {
		if v := p.visitAt(stage); v != nil && v.pipe != pipe {
			// State lives elsewhere: stop executing; the packet
			// drains and re-circulates (§2.3).
			p.frozen = true
			p.resumeStage = stage
		} else {
			s.execStage(p, stage, pipe)
			if v != nil {
				s.completeVisit(p, stage)
			}
			if stage == s.resStage && !p.resolved {
				s.resolve(p, pipe)
			}
		}
	}
	st.out = p
	s.outCnt[stage]++
}

// egress handles a packet leaving the last stage: completion, or (for the
// recirculation baseline) re-injection towards its next pipeline.
func (s *Simulator) egress(p *Packet) {
	if s.cfg.Arch == ArchRecirc && !p.stateless() {
		v := p.pendingVisit()
		p.frozen = false
		p.pipe = v.pipe
		p.recircs++
		s.res.Recirculations++
		s.emit(EvSteer, p.ID, -1, v.pipe)
		s.recircWait = append(s.recircWait, recircEntry{p: p, ready: s.now + s.cfg.RecircDelay})
		return
	}
	s.res.Completed++
	s.live--
	s.emit(EvEgress, p.ID, s.S-1, p.pipe)
	if s.res.Completed == 1 {
		s.res.FirstDone = s.now
	}
	s.res.LastDone = s.now
	s.egressOrder = append(s.egressOrder, p.ID)
	s.latencies = append(s.latencies, s.now-p.ArrivalCycle)
	if s.cfg.RecordOutputs {
		s.outIDs = append(s.outIDs, p.ID)
		s.outs = append(s.outs, p.Env.Fields...)
	}
	if p.phantomsLeft != 0 {
		// Phantom events and FIFO entries point at their packet, so
		// reusing one they still reference would corrupt its successor.
		panic("core: egressing packet still has phantoms outstanding")
	}
	s.freePkts = append(s.freePkts, p)
}

// maybeRemap runs the dynamic-sharding step on its period and applies the
// resulting state movements (atomic within the cycle, §3.4).
func (s *Simulator) maybeRemap() {
	if !s.cfg.dynamicSharding() || s.now == 0 || s.now%s.cfg.RemapInterval != 0 {
		return
	}
	var moves []sharding.Move
	if s.cfg.Arch == ArchIdeal {
		moves = s.shard.RemapLPT()
	} else {
		moves = s.shard.Remap()
	}
	for _, m := range moves {
		s.regs[m.To].Array(m.Reg)[m.Idx] = s.regs[m.From].Array(m.Reg)[m.Idx]
		s.emit(EvShardMove, int64(m.Idx), m.Reg, m.To)
	}
	s.res.ShardMoves += int64(len(moves))
}

// finalize computes the derived statistics.
func (s *Simulator) finalize() {
	s.res.Cycles = s.now
	offeredSpan := s.res.LastArrival - s.res.FirstArrival + 1
	doneSpan := s.res.LastDone - s.res.FirstDone + 1
	if s.res.Injected > 0 && s.res.Completed > 0 && offeredSpan > 0 && doneSpan > 0 {
		offeredRate := float64(s.res.Injected) / float64(offeredSpan)
		achievedRate := float64(s.res.Completed) / float64(doneSpan)
		s.res.Throughput = achievedRate / offeredRate
	}
	if len(s.latencies) > 0 {
		// One counting pass plus a histogram quantile. Unit-width
		// buckets (max < 64Ki) make the P99 exact; wider runs are
		// approximate within max/64Ki cycles.
		var sum, maxL int64
		for _, l := range s.latencies {
			sum += l
			if l > maxL {
				maxL = l
			}
		}
		s.res.MeanLatency = float64(sum) / float64(len(s.latencies))
		s.res.MaxLatency = maxL
		n := int(maxL) + 1
		if n > 1<<16 {
			n = 1 << 16
		}
		h := stats.NewHistogram(0, float64(maxL)+1, n)
		for _, l := range s.latencies {
			h.Add(float64(l))
		}
		p99 := int64(h.Quantile(0.99))
		if p99 > maxL {
			p99 = maxL
		}
		s.res.P99Latency = p99
	}
	s.res.Reordered = CountOvertakers(s.egressOrder)
	if s.order != nil {
		violators := map[int64]bool{}
		s.order.Each(func(_, _ int, seq []int64) { markViolators(seq, violators) })
		s.res.C1Violating = int64(len(violators))
		if s.res.Completed > 0 {
			s.res.ViolationFraction = float64(s.res.C1Violating) / float64(s.res.Completed)
		}
	}
}

// CountOvertakers counts ids that appear before some smaller id in the
// sequence (packets that egressed ahead of an earlier arrival). Exported so
// other execution engines (the concurrent dataplane) can report egress
// reordering with the same definition as the simulator.
func CountOvertakers(seq []int64) int64 {
	var n int64
	minSuffix := int64(1<<63 - 1)
	for i := len(seq) - 1; i >= 0; i-- {
		if seq[i] > minSuffix {
			n++
		}
		if seq[i] < minSuffix {
			minSuffix = seq[i]
		}
	}
	return n
}

// markViolators adds to set every id that accessed the state before some
// smaller id that accessed it too (condition C1: same state, same order as
// arrival order).
func markViolators(seq []int64, set map[int64]bool) {
	minSuffix := int64(1<<63 - 1)
	for i := len(seq) - 1; i >= 0; i-- {
		if seq[i] > minSuffix {
			set[seq[i]] = true
		}
		if seq[i] < minSuffix {
			minSuffix = seq[i]
		}
	}
}

// AccessOrders returns the recorded per-slot effective access order
// (RecordAccessOrder; nil otherwise), keyed like equiv.ReferenceOrder. The
// sequences share the simulator's record.
func (s *Simulator) AccessOrders() map[string][]int64 { return s.order.Map() }

// Outputs returns the recorded per-packet final header fields
// (RecordOutputs; nil otherwise). The slices share the simulator's record.
func (s *Simulator) Outputs() map[int64][]int64 {
	if !s.cfg.RecordOutputs {
		return nil
	}
	nf := len(s.prog.Fields)
	out := make(map[int64][]int64, len(s.outIDs))
	for i, id := range s.outIDs {
		out[id] = s.outs[i*nf : (i+1)*nf : (i+1)*nf]
	}
	return out
}

// EgressOrder returns packet ids in egress order.
func (s *Simulator) EgressOrder() []int64 { return s.egressOrder }

// FinalRegs returns the merged register state: for each array, each index's
// value read from the pipeline currently holding its active copy.
func (s *Simulator) FinalRegs() [][]int64 {
	out := make([][]int64, len(s.prog.Regs))
	for r := range s.prog.Regs {
		size := s.prog.Regs[r].Size
		vals := make([]int64, size)
		if s.shard.Sharded(r) {
			for i := 0; i < size; i++ {
				vals[i] = s.regs[s.shard.PipeOf(r, i)].Array(r)[i]
			}
		} else {
			copy(vals, s.regs[s.shard.PipeOf(r, 0)].Array(r))
		}
		out[r] = vals
	}
	return out
}

// Shard exposes the sharding map (tests and diagnostics).
func (s *Simulator) Shard() *sharding.Map { return s.shard }

// BookkeepingLive reports the number of parked early data packets and the
// live-entity counter after a run. Both must be zero once the switch has
// drained.
func (s *Simulator) BookkeepingLive() (pendingInserts int, live int64) {
	return len(s.pendingInserts), s.live
}
