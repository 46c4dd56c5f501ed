// Package bytecode compiles PVSM stages (ir.Stage) into quickened
// three-address micro-ops and runs them on a small register VM. Every
// execution engine in this repository — the Banzai single-pipeline
// reference, the event-driven simulator core, the sharded dataplane and
// the replicated engine — runs packets through it on its per-packet hot
// path; ir.ExecStage's tree-walk stays the semantic ground truth the
// compiled form is differenced against.
//
// Design points:
//
//   - One StageProgram per ir.Stage: one fixed-width micro-op per
//     predicated three-address instruction (the codelet form of Packet
//     Transactions), every operand resolved at compile time to an absolute
//     offset into the env's frame, plus a per-stage deduplicated constant
//     pool. A peephole pass fuses read-modify-write triples (micro.go).
//   - Semantics are bit-identical to ir.ExecInstr: safe division and
//     modulo (x/0 == x%0 == 0), shift clamping to [0, 63], arithmetic
//     right shift, and Go's wrapping MinInt64 / -1. The differential
//     fuzz harness (internal/fuzz) holds the two executors to that
//     contract on every generated program.
//   - The C1 observation points survive compilation: ExecStageObserved
//     reports every executed register access (predicate already held, raw
//     index) immediately before the access happens, in instruction order —
//     exactly like the interpreter's ir.ExecStageObserved, so the order
//     oracle needs no changes.
//   - Compile also records each stage's register-access sites (Sites) and
//     whether the stage is stable: no micro-op writes a slot a later site
//     reads as its index or predicate, so the sites' accesses are known
//     from the frame at stage entry. An engine may then check them all
//     before running the stage unobserved.
//   - Compile reads its ir.Program and writes nothing back, and a VM holds
//     no state: all of a packet's execution state lives in its env's frame
//     and the ir.RegFile. One Program and one VM serve every goroutine.
package bytecode

import (
	"fmt"

	"mp5/internal/ir"
)

// StageProgram is one compiled pipeline stage. The zero value is an empty
// (no-op) stage.
type StageProgram struct {
	// Consts is the stage's deduplicated constant pool, in first-use order.
	Consts []int64
	// Stateful mirrors ir.Stage.Stateful for the compiled form.
	Stateful bool
	// micro is the stage's code: one micro-op per non-nop source
	// instruction, with a fused read-modify-write standing for three.
	micro []microOp
	// sites lists the stage's register accesses in micro-op order, and
	// stable reports that each one's index and predicate are unchanged
	// from stage entry to the access (see sitesOf).
	sites  []Site
	stable bool
	// The frame geometry, shared by every stage of the program: nf and nt
	// are its field and temp counts, frameLen the full frame the micro-ops
	// address (fields, temps, scratch, and every stage's pool region), and
	// pools the whole program's concatenated constant pools, which fit
	// copies in past the scratch slots.
	nf, nt   int
	frameLen int
	pools    []int64
}

// Site is one register-access site of a compiled stage: a read, a write,
// or a fused read-modify-write (one site for its read and its write, which
// share register, index and predicate). Idx and Pred are offsets into the
// env's fitted frame (ir.Env.Frame).
type Site struct {
	// Reg is the register-array id.
	Reg int
	// Idx is the frame offset of the raw (pre-clamp) index.
	Idx int
	// Pred is the frame offset of the predicate, or -1 when the site is
	// unpredicated; Neg inverts it (if-else else-arms).
	Pred int
	Neg  bool
}

// Held reports whether the site's access executes on frame: it is
// unpredicated, or its predicate holds.
func (s *Site) Held(frame []int64) bool {
	return s.Pred < 0 || (frame[s.Pred] != 0) != s.Neg
}

// Sites returns the stage's register-access sites in micro-op order. The
// slice is shared; callers must not modify it.
func (sp *StageProgram) Sites() []Site { return sp.sites }

// Stable reports whether no micro-op of the stage writes a frame slot that
// a later site reads as its index or predicate (a fused read-modify-write
// counts as writing both its t1 and its t2). On a stable stage, the sites
// that Held on the frame at stage entry, at the indices the frame holds
// then, are exactly the accesses ExecStage will perform. A stage without
// sites is stable.
func (sp *StageProgram) Stable() bool { return sp.stable }

// Program is a whole compiled program: one StageProgram per ir.Stage,
// sharing the source program's metadata. This is the handle every engine
// holds after load-time compilation.
type Program struct {
	// IR is the source program (register/table metadata, access sites).
	IR *ir.Program
	// Stages holds the compiled form of IR.Stages, index-aligned.
	Stages []StageProgram
}

// VM executes compiled stages. It holds no state, so one VM serves any
// number of goroutines at once.
type VM struct{}

// NewVM returns a VM for p.
func NewVM(p *Program) *VM { return &VM{} }

// ExecStage executes one compiled stage against env and regs, exactly like
// ir.ExecStage on the source stage. It returns a non-nil error only when
// the env's Fields or Temps lengths do not match the program's, which fit
// detects on the env's first stage call.
func (vm *VM) ExecStage(sp *StageProgram, e *ir.Env, regs *ir.RegFile) error {
	return vm.exec(sp, e, regs, nil)
}

// ExecStageObserved executes the stage like ExecStage but reports every
// executed register access (predicate already held, raw pre-clamp index)
// to obs immediately before the access happens — the same observation
// contract as ir.ExecStageObserved, which the C1 order oracle depends on.
func (vm *VM) ExecStageObserved(sp *StageProgram, e *ir.Env, regs *ir.RegFile, obs ir.AccessObserver) error {
	return vm.exec(sp, e, regs, obs)
}

// exec fits the env on its first stage call and then runs the micro-ops.
func (vm *VM) exec(sp *StageProgram, e *ir.Env, regs *ir.RegFile, obs ir.AccessObserver) error {
	if err := sp.Fit(e); err != nil {
		return err
	}
	vm.Run(sp, e.Frame, regs, obs)
	return nil
}

// Run executes the stage on frame, the Frame of an env Fit has already
// fitted, reporting accesses to obs like ExecStageObserved when obs is
// non-nil. A caller that fitted the env to read its Sites pays for no
// second fit.
func (vm *VM) Run(sp *StageProgram, frame []int64, regs *ir.RegFile, obs ir.AccessObserver) {
	execMicro(sp, frame, regs, obs)
}

// Fit gives e the frame the program's micro-ops address, unless it already
// has it, so a caller can read site offsets (Sites) before the env's first
// stage call. It fails like ExecStage on a misshapen env. Only fit creates
// a frame of frameLen slots (Env.Clone and ResetFor keep it), so a frame
// that long is already seeded with every stage's pool.
func (sp *StageProgram) Fit(e *ir.Env) error {
	if len(e.Frame) >= sp.frameLen {
		return nil
	}
	return sp.fit(e)
}

// fit gives e the frame sp's micro-ops address: it allocates the full
// frame, copies the env's fields and temps in, re-slices Fields and Temps
// onto it, and seeds every stage's pool region. A pooled env is fitted
// once; the full-capacity slice expressions keep appends — which never
// happen — from aliasing.
func (sp *StageProgram) fit(e *ir.Env) error {
	nf, nt := sp.nf, sp.nt
	if len(e.Fields) != nf || len(e.Temps) != nt {
		return fmt.Errorf("bytecode: env has %d fields and %d temps, program has %d and %d",
			len(e.Fields), len(e.Temps), nf, nt)
	}
	frame := make([]int64, sp.frameLen)
	copy(frame, e.Fields)
	copy(frame[nf:], e.Temps)
	copy(frame[nf+nt+scratchSlots:], sp.pools)
	e.Fields = frame[:nf:nf]
	e.Temps = frame[nf : nf+nt : nf+nt]
	e.Frame = frame
	return nil
}
