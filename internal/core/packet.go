package core

import (
	"slices"
	"sync"

	"mp5/internal/ir"
)

// Arrival describes one packet offered to the switch. Traces are generated
// by the workload package and must be sorted by (Cycle, Port) — the paper's
// §2.2.1 tie-break admits the smaller port first.
type Arrival struct {
	// Cycle is the arrival time in pipeline clock cycles.
	Cycle int64
	// Port is the input port (0-based).
	Port int
	// Size is the wire size in bytes (affects only arrival spacing,
	// which the generator has already applied; recorded for stats).
	Size int
	// Fields holds the initial packet header field values, in the
	// program's field order.
	Fields []int64
}

// pkt is a handle on one in-flight packet: its index in the simulator's
// packet store. The store never issues handle 0, so the zero value (noPkt)
// means "no packet".
type pkt int32

const noPkt pkt = 0

// visitAcc is one register access a packet performs during a stage visit.
type visitAcc struct {
	reg int32
	// idx is the resolved register index for sharded arrays, or -1 for
	// array-level (unsharded) accesses.
	idx int32
}

// phantomState tracks a visit's phantom placeholder (architectures that
// enforce D4 with phantoms only).
type phantomState uint8

const (
	phantomNone     phantomState = iota // no phantom was generated
	phantomInFlight                     // scheduled on the phantom channel
	phantomQueued                       // in the stage FIFO at pos
	phantomGone                         // replaced by its data packet, or dropped
)

// visit is one stateful stage visit: the stage, the destination pipeline
// (resolved against the index-to-pipeline map at address-resolution time),
// the accesses performed there (the nacc records from acc0 of the packet's
// access row), and where the visit's phantom is.
type visit struct {
	pos        int32 // the phantom's FIFO position (phantomQueued)
	stage      int16
	pipe       int16
	acc0, nacc uint16
	phantom    phantomState
}

// packet is the fixed part of one in-flight packet's record; its frame,
// visits and access records are rows of the store's arenas under the same
// handle.
type packet struct {
	id      int64 // arrival sequence number = FIFO ordering timestamp
	arrival int64 // arrival cycle

	// nvisits is the length of the visit row (stateful stage visits in
	// stage order), nextVisit the first not yet performed.
	nvisits, nextVisit int32
	// phantomsLeft counts phantom placeholders not yet consumed (insert,
	// push overflow or dead pop); the handle is recycled only at zero.
	phantomsLeft int32
	// pipe is the packet's pipeline; srcPipe where it was before its latest
	// steering (the sub-FIFO it lands in is indexed by source pipeline).
	pipe, srcPipe int32
	// Recirculation baseline: frozen marks that execution stopped at
	// resumeStage because the state lives in another pipeline.
	resumeStage int32
	frozen      bool

	dead      bool // dropped mid-flight: its queued phantoms are cleared, not awaited
	resolved  bool // past address resolution: the visits are valid
	ecnMarked bool // congestion-marked at FIFO entry (Config.ECNThreshold)
	// parked records that the packet outran its phantom to its visit stage
	// and waited in the crossbar buffer (once in Result.ParkedEarly).
	parked bool
}

// store holds every in-flight packet of one run — records, and fixed-stride
// rows of frames (the VM's whole per-packet state), visits and access
// records, indexed by handle — and every stage FIFO's entries. None holds a
// pointer, so the collector never scans them. A released handle's rows are
// reused as they stand: the frame keeps its scratch and pools, the visit
// and access rows are rewritten at resolution.
type store struct {
	pkts   []packet
	frames []int64    // row h: frames[h*fl : (h+1)*fl]
	visits []visit    // row h: visits[h*na : h*na+nvisits]
	accs   []visitAcc // row h: accs[h*na : (h+1)*na]
	free   []pkt
	blocks blockPool
	// tmpl is the program's frame template (bytecode.Program.NewFrame),
	// which seeds each frame row once.
	tmpl []int64
	// fl is the frame stride, na the visit and access stride (one per
	// program access, the most a packet can have), nf and nt the field
	// and temp counts at the head of every frame.
	fl, na, nf, nt int
}

// stores recycles stores across simulators: a simulator takes one when it
// is built and its run puts it back once drained, so of the many short runs
// a prediction or an experiment table makes in a row, only the first grows
// its arenas; the next reuses their capacity, whatever program it runs.
var stores = sync.Pool{New: func() any { return new(store) }}

// newStore takes a store from stores and empties it for prog.
func newStore(prog *ir.Program, tmpl []int64) *store {
	st := stores.Get().(*store)
	st.tmpl, st.fl, st.na, st.nf, st.nt = tmpl, len(tmpl), len(prog.Accesses), len(prog.Fields), prog.NumTemps
	st.pkts, st.frames, st.visits, st.accs, st.free = st.pkts[:0], st.frames[:0], st.visits[:0], st.accs[:0], st.free[:0]
	st.blocks = blockPool{entries: st.blocks.entries[:0], next: st.blocks.next[:0], free: st.blocks.free[:0]}
	st.grow() // row 0 backs noPkt and is never handed out
	return st
}

// grow appends one row to every arena, doubling their capacity when full.
func (st *store) grow() pkt {
	h := pkt(len(st.pkts))
	st.pkts = extend(st.pkts, 1)
	st.frames = extend(st.frames, st.fl)
	copy(st.frames[int(h)*st.fl:], st.tmpl)
	st.visits = extend(st.visits, st.na)
	st.accs = extend(st.accs, st.na)
	return h
}

// extend lengthens xs by n, at least doubling its capacity when full.
func extend[T any](xs []T, n int) []T {
	if len(xs)+n > cap(xs) {
		xs = slices.Grow(xs, max(n, cap(xs)))
	}
	return xs[:len(xs)+n]
}

// alloc returns a handle for arrival a with sequence number id entering
// pipeline pipe: a released one when there is one, else a new row. The
// frame's fields are copied from the arrival (missing trailing fields
// zeroed) and its temps cleared, as ir.Env.ResetFor does.
func (st *store) alloc(id int64, a *Arrival, pipe int) pkt {
	var h pkt
	if n := len(st.free); n > 0 {
		h, st.free = st.free[n-1], st.free[:n-1]
	} else {
		h = st.grow()
	}
	st.pkts[h] = packet{id: id, arrival: a.Cycle, pipe: int32(pipe)}
	f := st.frame(h)
	n := copy(f[:st.nf], a.Fields)
	clear(f[n : st.nf+st.nt])
	return h
}

// release returns h to the free list. Nothing may refer to it afterwards.
func (st *store) release(h pkt) { st.free = append(st.free, h) }

func (st *store) at(h pkt) *packet { return &st.pkts[h] }

// frame returns h's frame row.
func (st *store) frame(h pkt) []int64 {
	o := int(h) * st.fl
	return st.frames[o : o+st.fl : o+st.fl]
}

// load reads operand o from h's frame.
func (st *store) load(h pkt, o ir.Operand) int64 {
	switch o.Kind {
	case ir.KindConst:
		return o.Val
	case ir.KindField:
		return st.frames[int(h)*st.fl+o.ID]
	case ir.KindTemp:
		return st.frames[int(h)*st.fl+st.nf+o.ID]
	}
	return 0
}

// visitsOf returns h's resolved visits.
func (st *store) visitsOf(h pkt) []visit {
	o := int(h) * st.na
	return st.visits[o : o+int(st.pkts[h].nvisits)]
}

// accsOf returns the access records of h's visit v.
func (st *store) accsOf(h pkt, v *visit) []visitAcc {
	o := int(h)*st.na + int(v.acc0)
	return st.accs[o : o+int(v.nacc)]
}

// pendingVisit returns h's next unperformed visit, or nil.
func (st *store) pendingVisit(h pkt) *visit {
	if p := &st.pkts[h]; p.nextVisit < p.nvisits {
		return &st.visits[int(h)*st.na+int(p.nextVisit)]
	}
	return nil
}

// visitAt returns h's pending visit if it is for stage s, else nil.
func (st *store) visitAt(h pkt, s int) *visit {
	if v := st.pendingVisit(h); v != nil && int(v.stage) == s {
		return v
	}
	return nil
}
