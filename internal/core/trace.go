package core

import "fmt"

// EventKind classifies simulator trace events (Config.Trace).
type EventKind int

const (
	// EvAdmit: a packet entered stage 0 of a pipeline.
	EvAdmit EventKind = iota
	// EvExec: a stage processed a packet this cycle (at most one per
	// (stage, pipeline, cycle) — Banzai's "one packet per stage").
	EvExec
	// EvResolve: preemptive address resolution completed for a packet.
	EvResolve
	// EvPhantom: a phantom landed in a stage FIFO.
	EvPhantom
	// EvEnqueue: a data packet entered a stage FIFO (insert/push) or
	// ideal queue.
	EvEnqueue
	// EvSteer: a packet started an inter-pipeline crossing.
	EvSteer
	// EvEgress: a packet left the last stage.
	EvEgress
	// EvDrop: a packet was dropped (FIFO overflow, insert miss,
	// ingress overflow, or starvation-guard policy). The event's Cause
	// field names the reason; EvDrop fires exactly once per dropped
	// packet, so EvAdmit-ed ids partition into EvEgress and EvDrop.
	EvDrop
	// EvPhantomDrop: a phantom placeholder overflowed its stage FIFO.
	// The data packet is still in flight (it will later find no
	// placeholder and count an EvDrop with CauseInsert), so this kind is
	// separate from EvDrop to keep the one-death-per-packet invariant.
	EvPhantomDrop
	// EvShardMove: the dynamic-sharding remap migrated one register
	// entry between pipelines. Field mapping: Stage carries the register
	// id, PktID the index, Pipe the destination pipeline.
	EvShardMove
	// EvAccess: a stateful instruction actually executed (its predicate
	// held) on a concrete register slot. Reg and Idx carry the register
	// array id and the clamped index; one event fires per distinct
	// (register, index) a packet touches during one stage execution —
	// the same list Config.RecordAccessOrder logs, so the stream carries
	// the order the C1 verdict judges.
	EvAccess
)

var eventNames = map[EventKind]string{
	EvAdmit: "admit", EvExec: "exec", EvResolve: "resolve",
	EvPhantom: "phantom", EvEnqueue: "enqueue", EvSteer: "steer",
	EvEgress: "egress", EvDrop: "drop",
	EvPhantomDrop: "phantom-drop", EvShardMove: "shard-move",
	EvAccess: "access",
}

// String names the event kind.
func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// DropCause classifies EvDrop events; the names mirror the Result drop
// counters so an event stream reconciles with the end-of-run summary.
type DropCause int

const (
	// CauseNone: the event is not a drop.
	CauseNone DropCause = iota
	// CauseData: a stage sub-FIFO overflowed on a data push
	// (Result.DroppedData; only the no-D4 baseline pushes data).
	CauseData
	// CauseInsert: the arriving data packet found no placeholder
	// at its visit stage — its phantom was dropped earlier
	// (Result.DroppedInsert).
	CauseInsert
	// CauseIngress: a per-pipeline ingress buffer overflowed in the
	// recirculation baseline (Result.DroppedIngress).
	CauseIngress
	// CauseStarved: the starvation guard sacrificed an incoming
	// stateless packet for a long-waiting queued one
	// (Result.DroppedStarved).
	CauseStarved
)

var causeNames = map[DropCause]string{
	CauseData: "data", CauseInsert: "insert",
	CauseIngress: "ingress", CauseStarved: "starved",
}

// String names the drop cause ("" for CauseNone).
func (c DropCause) String() string {
	if s, ok := causeNames[c]; ok {
		return s
	}
	if c == CauseNone {
		return ""
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Event is one simulator occurrence, delivered synchronously to
// Config.Trace in deterministic order within a cycle.
type Event struct {
	Cycle int64
	Kind  EventKind
	// PktID identifies the packet (phantoms carry their data packet's
	// id; EvShardMove carries the migrated index).
	PktID int64
	// Stage and Pipe locate the event; -1 when not applicable.
	// EvShardMove reuses Stage for the register id and Pipe for the
	// destination pipeline.
	Stage int
	Pipe  int
	// Cause is set on EvDrop events only.
	Cause DropCause
	// Reg and Idx are set on EvAccess events only: the register array id
	// and the clamped register index the stateful instruction used.
	Reg int
	Idx int
}

// String renders the event.
func (e Event) String() string {
	if e.Kind == EvDrop && e.Cause != CauseNone {
		return fmt.Sprintf("c%d %v pkt=%d stage=%d pipe=%d cause=%v",
			e.Cycle, e.Kind, e.PktID, e.Stage, e.Pipe, e.Cause)
	}
	if e.Kind == EvAccess {
		return fmt.Sprintf("c%d %v pkt=%d stage=%d pipe=%d r%d[%d]",
			e.Cycle, e.Kind, e.PktID, e.Stage, e.Pipe, e.Reg, e.Idx)
	}
	return fmt.Sprintf("c%d %v pkt=%d stage=%d pipe=%d", e.Cycle, e.Kind, e.PktID, e.Stage, e.Pipe)
}

// emit delivers an event to the trace hook, if any.
func (s *Simulator) emit(kind EventKind, pktID int64, stage, pipe int) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace(Event{Cycle: s.now, Kind: kind, PktID: pktID, Stage: stage, Pipe: pipe})
}

// emitDrop delivers an EvDrop event carrying its cause.
func (s *Simulator) emitDrop(pktID int64, stage, pipe int, cause DropCause) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace(Event{Cycle: s.now, Kind: EvDrop, PktID: pktID, Stage: stage, Pipe: pipe, Cause: cause})
}
