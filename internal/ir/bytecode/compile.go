package bytecode

import (
	"fmt"
	"math"

	"mp5/internal/ir"
)

// Compile translates every stage of p into micro-ops. The result shares p's
// metadata (register placement, access sites, tables) — only the stage
// bodies change representation. Compile reads p and never writes it, so
// any number of goroutines may compile one program while others run it.
// Engines compile once at load and keep the returned Program for the run.
//
// Compilation fails only on input a Validate-clean program cannot hit: a
// frame (fields, temps, scratch and constant pools) past uint16
// addressing, a register or table id above 65535, a field or temp id
// outside the program, or an unknown opcode.
func Compile(p *ir.Program) (*Program, error) {
	nf, nt := len(p.Fields), p.NumTemps
	out := &Program{IR: p, Stages: make([]StageProgram, len(p.Stages))}
	poolBase := nf + nt + scratchSlots
	total := 0
	for si := range p.Stages {
		sp, err := compileStage(&p.Stages[si], nf, nt, poolBase+total)
		if err != nil {
			return nil, fmt.Errorf("stage %d: %w", si, err)
		}
		out.Stages[si] = sp
		total += len(sp.Consts)
	}
	// Lay the per-stage pools out in one shared image and hand every stage
	// the frame geometry: disjoint pool regions are what lets an env be
	// fitted once and reused across all stages (see fit).
	pools := make([]int64, 0, total)
	for si := range out.Stages {
		pools = append(pools, out.Stages[si].Consts...)
	}
	for si := range out.Stages {
		sp := &out.Stages[si]
		sp.nf, sp.nt, sp.frameLen, sp.pools = nf, nt, poolBase+total, pools
	}
	return out, nil
}

// MustCompile is Compile for programs already past ir.Program.Validate;
// it panics on the structural limits Compile can reject.
func MustCompile(p *ir.Program) *Program {
	bp, err := Compile(p)
	if err != nil {
		panic("bytecode: " + err.Error())
	}
	return bp
}

// asm assembles one stage: it interns constants into the stage pool and
// emits one micro-op per source instruction. err keeps the first operand
// that does not fit its uint16 slot; instr reports it.
type asm struct {
	nf, nt   int
	consts   []int64
	constIdx map[int64]int
	micro    []microOp
	err      error
}

func compileStage(s *ir.Stage, nf, nt, constBase int) (StageProgram, error) {
	a := &asm{nf: nf, nt: nt, constIdx: make(map[int64]int)}
	for i := range s.Instrs {
		if err := a.instr(&s.Instrs[i]); err != nil {
			return StageProgram{}, fmt.Errorf("instr %d (%s): %w", i, &s.Instrs[i], err)
		}
	}
	a.micro = fuseMicro(a.micro)
	if err := a.finalize(constBase); err != nil {
		return StageProgram{}, err
	}
	sites, stable := sitesOf(a.micro)
	return StageProgram{Consts: a.consts, Stateful: s.Stateful(), micro: a.micro, sites: sites, stable: stable}, nil
}

// intern returns the pool index of v, adding it on first use. Pools are
// deduplicated by value: every read of the same constant shares one slot.
// finalize bounds the pool, so the index always fits a uint16.
func (a *asm) intern(v int64) uint16 {
	if i, ok := a.constIdx[v]; ok {
		return uint16(i)
	}
	i := len(a.consts)
	a.consts = append(a.consts, v)
	a.constIdx[v] = i
	return uint16(i)
}

// src resolves a source operand to its bank and index. None sources read
// the scratch bank's permanent zero slot, matching ir.Env.Load.
func (a *asm) src(o ir.Operand) (byte, uint16) {
	switch o.Kind {
	case ir.KindConst:
		return bankC, a.intern(o.Val)
	case ir.KindField, ir.KindTemp:
		return a.slot(o)
	}
	return bankS, 1
}

// dst resolves a destination operand; None and Const destinations land in
// the scratch bank's discard slot, matching ir.Env.Store's no-op.
func (a *asm) dst(o ir.Operand) (byte, uint16) {
	if o.Kind == ir.KindField || o.Kind == ir.KindTemp {
		return a.slot(o)
	}
	return bankS, 0
}

// slot resolves a field or temp operand, range-checking its id against the
// program's counts before narrowing it (finalize bounds the counts).
func (a *asm) slot(o ir.Operand) (byte, uint16) {
	bank, n := bankF, a.nf
	if o.Kind == ir.KindTemp {
		bank, n = bankT, a.nt
	}
	if o.ID < 0 || o.ID >= n {
		a.fail(fmt.Errorf("operand %s out of range (%d fields, %d temps)", o, a.nf, a.nt))
		return bank, 0
	}
	return bank, uint16(o.ID)
}

// reg range-checks a register or table id before narrowing it.
func (a *asm) reg(id int) uint16 {
	if id < 0 || id > math.MaxUint16 {
		a.fail(fmt.Errorf("register or table id %d exceeds uint16", id))
	}
	return uint16(id)
}

func (a *asm) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// instr emits the micro-op for one predicated three-address instruction,
// resolving exactly the operands its opcode reads, predicate first, so
// the pool lists constants in first-use order. Unused source slots point
// at the scratch bank: the dispatch loop's unconditional A and B reads
// stay in bounds on every op.
func (a *asm) instr(in *ir.Instr) error {
	if in.Op == ir.OpNop {
		return nil // nothing to execute, predicated or not
	}
	m := microOp{op: byte(in.Op), pk: pkNone, ak: bankS, bk: bankS, ck: bankS}
	if !in.Pred.IsNone() {
		m.pk, m.pi = a.src(in.Pred)
		if in.PredNeg {
			m.pk |= pkNeg
		}
	}
	m.dk, m.di = a.dst(in.Dst)
	switch in.Op {
	case ir.OpMov, ir.OpNot, ir.OpNeg:
		m.ak, m.ai = a.src(in.A)
	case ir.OpSelect, ir.OpHash3:
		m.ak, m.ai = a.src(in.A)
		m.bk, m.bi = a.src(in.B)
		m.ck, m.ci = a.src(in.C)
	case ir.OpHash2:
		m.ak, m.ai = a.src(in.A)
		m.bk, m.bi = a.src(in.B)
	case ir.OpLookup:
		m.ak, m.ai = a.src(in.A)
		m.bk, m.bi = a.src(in.B)
		m.ck, m.ci = a.src(in.C)
		m.reg = a.reg(in.Reg)
	case ir.OpRdReg:
		// The register index rides in the (otherwise unused) C slot.
		m.ck, m.ci = a.src(in.Idx)
		m.reg = a.reg(in.Reg)
	case ir.OpWrReg:
		m.ak, m.ai = a.src(in.A)
		m.ck, m.ci = a.src(in.Idx)
		m.reg = a.reg(in.Reg)
	default:
		if !binary(in.Op) {
			return fmt.Errorf("unknown opcode %s", in.Op)
		}
		m.ak, m.ai = a.src(in.A)
		m.bk, m.bi = a.src(in.B)
	}
	if a.err != nil {
		return a.err
	}
	a.micro = append(a.micro, m)
	return nil
}

// binary reports whether op is a two-source ALU opcode.
func binary(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpLAnd, ir.OpLOr, ir.OpMax, ir.OpMin:
		return true
	}
	return false
}
