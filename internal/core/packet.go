package core

import "mp5/internal/ir"

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

// visitAcc is one register access a packet performs during a stage visit.
type visitAcc struct {
	reg int
	// idx is the resolved register index for sharded arrays, or -1 for
	// array-level (unsharded) accesses.
	idx int
}

// phantomState tracks a visit's phantom placeholder (architectures that
// enforce D4 with phantoms only).
type phantomState uint8

const (
	phantomNone     phantomState = iota // no phantom was generated
	phantomInFlight                     // scheduled on the phantom channel
	phantomQueued                       // in the stage FIFO at (fifo, seq)
	phantomGone                         // replaced by its data packet, or dropped
)

// visit is one stateful stage visit: the stage, the destination pipeline
// (resolved against the index-to-pipeline map at address-resolution time),
// the accesses performed there, and where the visit's phantom is.
type visit struct {
	stage int
	pipe  int
	accs  []visitAcc

	phantom phantomState
	fifo    int32 // sub-FIFO the phantom was pushed to (phantomQueued)
	seq     int64 // its sequence number there
}

// Packet is one in-flight packet inside the simulator.
type Packet struct {
	// ID is the arrival sequence number; it doubles as the FIFO
	// ordering timestamp (packets and their phantoms inherit it).
	ID int64
	// Port and Size echo the arrival record.
	Port int
	Size int
	// ArrivalCycle is when the packet arrived at the switch.
	ArrivalCycle int64
	// Env carries the header fields and PHV metadata (temps).
	Env *ir.Env

	// visits lists the resolved stateful stage visits in stage order;
	// nextVisit points at the first not-yet-performed one. accsBuf is
	// the flat backing array the visits' access lists sub-slice.
	visits    []visit
	accsBuf   []visitAcc
	nextVisit int

	// phantomsLeft counts the packet's phantom placeholders not yet
	// consumed (by a successful insert, a push overflow, or a dead pop);
	// it is zero by the time the packet egresses and is recycled.
	phantomsLeft int
	// dead marks a packet dropped mid-flight: its queued phantoms are
	// cleared at the FIFO head instead of blocking it.
	dead bool

	// pipe is the pipeline the packet currently occupies; srcPipe is
	// where it was before its most recent crossbar steering (the
	// sub-FIFO it lands in is indexed by source pipeline).
	pipe    int
	srcPipe int

	// resolved is set once the packet passed the address-resolution
	// stage (visits are valid from then on).
	resolved bool

	// ecnMarked records a congestion mark applied at FIFO entry
	// (Config.ECNThreshold).
	ecnMarked bool

	// parked records that the packet outran its phantom to its visit
	// stage and waited in the crossbar buffer (counted once per packet in
	// Result.ParkedEarly, however many retry cycles it parks for).
	parked bool

	// Recirculation-baseline state: frozen marks that execution stopped
	// at resumeStage because the state lives in another pipeline; the
	// packet physically drains and re-enters the target pipeline.
	frozen      bool
	resumeStage int
	recircs     int
}

// pendingVisit returns the next unperformed visit, or nil.
func (p *Packet) pendingVisit() *visit {
	if p.nextVisit < len(p.visits) {
		return &p.visits[p.nextVisit]
	}
	return nil
}

// visitAt returns the pending visit if it is for stage s, else nil.
func (p *Packet) visitAt(s int) *visit {
	if v := p.pendingVisit(); v != nil && v.stage == s {
		return v
	}
	return nil
}

// stateless reports whether the packet has no unperformed stateful visits.
func (p *Packet) stateless() bool { return p.nextVisit >= len(p.visits) }
