// Package ir defines the intermediate representation shared by the Domino
// compiler, the Banzai single-pipeline reference executor, and the MP5
// multi-pipeline simulator.
//
// The representation is a predicated three-address code (TAC), grouped into
// pipeline stages. The un-resourced, staged form is the paper's PVSM
// (Pipelined Virtual Switch Machine); after code generation the same
// structures describe a concrete Banzai/MP5 pipeline configuration.
package ir

import "fmt"

// OperandKind identifies where an operand's value lives.
type OperandKind uint8

const (
	// KindNone marks an absent operand (e.g. unused source slots).
	KindNone OperandKind = iota
	// KindConst is an immediate signed integer constant.
	KindConst
	// KindField is a packet header field declared in struct Packet.
	KindField
	// KindTemp is a packet-local temporary (PHV metadata) created by the
	// compiler. Temps travel with the packet between stages.
	KindTemp
)

// Operand is a source or destination of an instruction. Register accesses
// are not operands; they are expressed by the OpRdReg/OpWrReg opcodes whose
// index is itself an Operand.
type Operand struct {
	Kind OperandKind
	// Val holds the constant value when Kind == KindConst.
	Val int64
	// ID is the field or temp index when Kind is KindField or KindTemp.
	ID int
}

// None is the absent operand.
func None() Operand { return Operand{Kind: KindNone} }

// Const returns a constant operand.
func Const(v int64) Operand { return Operand{Kind: KindConst, Val: v} }

// Field returns a packet-field operand.
func Field(id int) Operand { return Operand{Kind: KindField, ID: id} }

// Temp returns a temporary operand.
func Temp(id int) Operand { return Operand{Kind: KindTemp, ID: id} }

// IsNone reports whether the operand is absent.
func (o Operand) IsNone() bool { return o.Kind == KindNone }

// String renders the operand for diagnostics and config dumps.
func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return "_"
	case KindConst:
		return fmt.Sprintf("%d", o.Val)
	case KindField:
		return fmt.Sprintf("f%d", o.ID)
	case KindTemp:
		return fmt.Sprintf("t%d", o.ID)
	}
	return "?"
}

// Op is a three-address opcode.
type Op uint8

// Arithmetic, logical, comparison, selection, builtin, and register opcodes.
const (
	OpNop    Op = iota
	OpMov       // dst = a
	OpAdd       // dst = a + b
	OpSub       // dst = a - b
	OpMul       // dst = a * b
	OpDiv       // dst = a / b   (b==0 yields 0)
	OpMod       // dst = a % b   (b==0 yields 0)
	OpAnd       // dst = a & b
	OpOr        // dst = a | b
	OpXor       // dst = a ^ b
	OpShl       // dst = a << b  (b clamped to [0,63])
	OpShr       // dst = a >> b  (arithmetic; b clamped to [0,63])
	OpEq        // dst = a == b
	OpNe        // dst = a != b
	OpLt        // dst = a < b
	OpLe        // dst = a <= b
	OpGt        // dst = a > b
	OpGe        // dst = a >= b
	OpLAnd      // dst = (a != 0) && (b != 0)
	OpLOr       // dst = (a != 0) || (b != 0)
	OpNot       // dst = a == 0
	OpNeg       // dst = -a
	OpSelect    // dst = a != 0 ? b : c
	OpMax       // dst = max(a, b)
	OpMin       // dst = min(a, b)
	OpHash2     // dst = hash(a, b)        (deterministic 63-bit mix)
	OpHash3     // dst = hash(a, b, c)
	OpLookup    // dst = MatchTable(a, b, c)  (Reg holds the table id; read-only)
	OpRdReg     // dst = Reg[idx]
	OpWrReg     // Reg[idx] = a            (predicate-gated when Pred set)
)

var opNames = [...]string{
	OpNop: "nop", OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpMod: "mod", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpEq: "eq", OpNe: "ne", OpLt: "lt",
	OpLe: "le", OpGt: "gt", OpGe: "ge", OpLAnd: "land", OpLOr: "lor",
	OpNot: "not", OpNeg: "neg", OpSelect: "select", OpMax: "max",
	OpMin: "min", OpHash2: "hash2", OpHash3: "hash3", OpLookup: "lookup",
	OpRdReg: "rdreg", OpWrReg: "wrreg",
}

// String renders the opcode mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsStateful reports whether the opcode touches register state.
func (op Op) IsStateful() bool { return op == OpRdReg || op == OpWrReg }

// Instr is one predicated three-address instruction.
//
// For OpRdReg: Dst = Reg[Idx].
// For OpWrReg: Reg[Idx] = A, executed only if the predicate holds.
// For all other ops: Dst = op(A, B, C); the predicate gates the write to Dst
// (an un-taken predicated ALU op leaves Dst unchanged).
type Instr struct {
	Op  Op
	Dst Operand
	A   Operand
	B   Operand
	C   Operand
	// Reg is the register-array id for OpRdReg/OpWrReg, the match-table
	// id for OpLookup, else -1.
	Reg int
	// Idx is the register index operand for OpRdReg/OpWrReg.
	Idx Operand
	// Pred, when not None, gates the instruction: it executes only when
	// the predicate value's truth equals !PredNeg.
	Pred    Operand
	PredNeg bool
}

// String renders the instruction for config dumps.
func (in Instr) String() string {
	var body string
	switch in.Op {
	case OpRdReg:
		body = fmt.Sprintf("%s = r%d[%s]", in.Dst, in.Reg, in.Idx)
	case OpWrReg:
		body = fmt.Sprintf("r%d[%s] = %s", in.Reg, in.Idx, in.A)
	case OpMov:
		body = fmt.Sprintf("%s = %s", in.Dst, in.A)
	case OpSelect:
		body = fmt.Sprintf("%s = %s ? %s : %s", in.Dst, in.A, in.B, in.C)
	case OpNot, OpNeg:
		body = fmt.Sprintf("%s = %s %s", in.Dst, in.Op, in.A)
	case OpHash3:
		body = fmt.Sprintf("%s = hash3(%s, %s, %s)", in.Dst, in.A, in.B, in.C)
	case OpHash2:
		body = fmt.Sprintf("%s = hash2(%s, %s)", in.Dst, in.A, in.B)
	case OpLookup:
		body = fmt.Sprintf("%s = tbl%d(%s, %s, %s)", in.Dst, in.Reg, in.A, in.B, in.C)
	default:
		body = fmt.Sprintf("%s = %s %s, %s", in.Dst, in.Op, in.A, in.B)
	}
	if !in.Pred.IsNone() {
		neg := ""
		if in.PredNeg {
			neg = "!"
		}
		return fmt.Sprintf("[%s%s] %s", neg, in.Pred, body)
	}
	return body
}

// Stage is one pipeline stage: a list of instructions that execute, in
// order, on the packet currently occupying the stage. All state referenced
// by the stage is local to the stage (Banzai's "no state sharing across
// stages").
type Stage struct {
	Instrs []Instr
}

// Stateful reports whether any instruction in the stage touches a register.
func (s *Stage) Stateful() bool {
	for _, in := range s.Instrs {
		if in.Op.IsStateful() {
			return true
		}
	}
	return false
}

// RegsUsed returns the distinct register-array ids the stage touches,
// in first-use order.
func (s *Stage) RegsUsed() []int {
	var out []int
	seen := map[int]bool{}
	for _, in := range s.Instrs {
		if in.Op.IsStateful() && !seen[in.Reg] {
			seen[in.Reg] = true
			out = append(out, in.Reg)
		}
	}
	return out
}

// RegInfo describes one register array declared by the program.
type RegInfo struct {
	Name string
	ID   int
	Size int
	// Init holds the initial values; if shorter than Size the remaining
	// entries start at the last given value's fill rule: Domino-style
	// {v} fills all entries with v, otherwise missing entries are zero.
	Init []int64
	// Stage is the pipeline stage the array was placed in (post-codegen).
	Stage int
	// Sharded reports whether the array may be sharded across pipelines
	// (false when the index computation is itself stateful; §3.3).
	Sharded bool
}

// InitialValue returns the initial value of index i under Domino fill rules.
func (r *RegInfo) InitialValue(i int) int64 {
	switch {
	case i < len(r.Init):
		return r.Init[i]
	case len(r.Init) == 1:
		return r.Init[0]
	default:
		return 0
	}
}

// Access describes one preemptively-resolved state access site: which
// register a packet may touch, in which stage, and where the resolved index
// and predicate can be read once the resolution stages have executed.
type Access struct {
	// Reg is the register-array id.
	Reg int
	// Stage is the stage holding the register (post-transformation).
	Stage int
	// Idx is the operand holding the resolved register index; its value
	// is available after the resolution stages run (the MP5 transformer
	// hoists its backward slice there). Idx is None for unsharded
	// arrays, whose placement is array-level rather than per-index.
	Idx Operand
	// Pred is the access predicate, or None when the access is
	// unconditional. Only meaningful when PredResolvable is true.
	Pred Operand
	// PredNeg negates the predicate (else-branch accesses).
	PredNeg bool
	// PredResolvable reports whether the predicate could be evaluated
	// preemptively. When false, MP5 conservatively emits the phantom
	// regardless of the predicate (§3.3), costing a wasted cycle when
	// the predicate turns out false.
	PredResolvable bool
}

// Program is a compiled packet-processing program: a staged, predicated TAC
// plus the metadata MP5 needs for preemptive address resolution.
type Program struct {
	Name string
	// Fields names the packet header fields, in declaration order.
	// A packet's field i corresponds to Fields[i].
	Fields []string
	// NumTemps is the number of packet-local temporaries.
	NumTemps int
	// Regs describes the register arrays.
	Regs []RegInfo
	// Tables describes the match tables; TableEntries holds the
	// control-plane configuration installed before the run.
	Tables       []TableInfo
	TableEntries []TableEntry
	// Stages is the staged code. Stages[0..ResolutionStages-1] are the
	// stateless resolution stages added by the PVSM-to-PVSM transformer
	// (zero for a plain Banzai compilation).
	Stages []Stage
	// Accesses lists the state-access sites in stage order. Empty for
	// stateless programs.
	Accesses []Access
	// ResolutionStages counts the leading address-resolution stages.
	ResolutionStages int
	// StatefulPredicates reports whether any register operation is
	// guarded by a predicate that itself depends on register state
	// (the paper's "predicates which could not be resolved preemptively";
	// three of its four applications have them).
	StatefulPredicates bool
}

// FieldIndex returns the index of the named header field, or -1.
func (p *Program) FieldIndex(name string) int {
	for i, f := range p.Fields {
		if f == name {
			return i
		}
	}
	return -1
}

// RegIndex returns the id of the named register array, or -1.
func (p *Program) RegIndex(name string) int {
	for i := range p.Regs {
		if p.Regs[i].Name == name {
			return i
		}
	}
	return -1
}

// NumStages returns the total pipeline depth of the program.
func (p *Program) NumStages() int { return len(p.Stages) }

// StatefulStages returns the indices of stages that touch registers.
func (p *Program) StatefulStages() []int {
	var out []int
	for i := range p.Stages {
		if p.Stages[i].Stateful() {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural invariants the simulators rely on: operand ids
// in range, register placement consistent with stage use, and all accesses
// pointing at stateful stages after the resolution prefix. A stage may hold
// several register arrays (Banzai allows it); the MP5 code generator
// additionally guarantees that multi-array stages only hold unsharded,
// co-located arrays.
func (p *Program) Validate() error {
	checkOp := func(o Operand, where string) error {
		switch o.Kind {
		case KindField:
			if o.ID < 0 || o.ID >= len(p.Fields) {
				return fmt.Errorf("%s: field id %d out of range", where, o.ID)
			}
		case KindTemp:
			if o.ID < 0 || o.ID >= p.NumTemps {
				return fmt.Errorf("%s: temp id %d out of range", where, o.ID)
			}
		}
		return nil
	}
	for si := range p.Stages {
		for ii, in := range p.Stages[si].Instrs {
			where := fmt.Sprintf("stage %d instr %d (%s)", si, ii, in)
			for _, o := range []Operand{in.Dst, in.A, in.B, in.C, in.Idx, in.Pred} {
				if err := checkOp(o, where); err != nil {
					return err
				}
			}
			if in.Op == OpLookup {
				if in.Reg < 0 || in.Reg >= len(p.Tables) {
					return fmt.Errorf("%s: table id %d out of range", where, in.Reg)
				}
			}
			if in.Op.IsStateful() {
				if in.Reg < 0 || in.Reg >= len(p.Regs) {
					return fmt.Errorf("%s: register id %d out of range", where, in.Reg)
				}
				if p.Regs[in.Reg].Stage != si {
					return fmt.Errorf("%s: register %s placed in stage %d but used in stage %d",
						where, p.Regs[in.Reg].Name, p.Regs[in.Reg].Stage, si)
				}
				if si < p.ResolutionStages {
					return fmt.Errorf("%s: stateful op inside resolution stage", where)
				}
			} else if in.Dst.Kind == KindNone && in.Op != OpNop {
				return fmt.Errorf("%s: missing destination", where)
			}
		}
		if regs := p.Stages[si].RegsUsed(); len(regs) > 1 {
			for _, r := range regs {
				if p.Regs[r].Sharded {
					return fmt.Errorf("stage %d holds %d register arrays but %s is sharded; sharded arrays must be alone in their stage",
						si, len(regs), p.Regs[r].Name)
				}
			}
		}
	}
	for ai, a := range p.Accesses {
		if a.Reg < 0 || a.Reg >= len(p.Regs) {
			return fmt.Errorf("access %d: register id %d out of range", ai, a.Reg)
		}
		if a.Stage < p.ResolutionStages || a.Stage >= len(p.Stages) {
			return fmt.Errorf("access %d: stage %d outside stateful region", ai, a.Stage)
		}
		if err := checkOp(a.Idx, fmt.Sprintf("access %d index", ai)); err != nil {
			return err
		}
		if err := checkOp(a.Pred, fmt.Sprintf("access %d predicate", ai)); err != nil {
			return err
		}
		if p.Regs[a.Reg].Sharded && a.Idx.IsNone() {
			return fmt.Errorf("access %d: sharded register %s lacks a resolved index",
				ai, p.Regs[a.Reg].Name)
		}
	}
	for i := 1; i < len(p.Accesses); i++ {
		if p.Accesses[i].Stage < p.Accesses[i-1].Stage {
			return fmt.Errorf("accesses not in stage order: %d before %d",
				p.Accesses[i-1].Stage, p.Accesses[i].Stage)
		}
	}
	return nil
}

// Dump renders the staged program as text (one instruction per line).
func (p *Program) Dump() string {
	out := fmt.Sprintf("program %s: %d fields, %d temps, %d regs, %d stages (%d resolution)\n",
		p.Name, len(p.Fields), p.NumTemps, len(p.Regs), len(p.Stages), p.ResolutionStages)
	for i, r := range p.Regs {
		out += fmt.Sprintf("  reg r%d %s[%d] stage=%d sharded=%v\n", i, r.Name, r.Size, r.Stage, r.Sharded)
	}
	for i, tb := range p.Tables {
		n := 0
		for _, e := range p.TableEntries {
			if e.Table == i {
				n++
			}
		}
		out += fmt.Sprintf("  table tbl%d %s(%d keys) default=%d entries=%d\n",
			i, tb.Name, tb.Keys, tb.Default, n)
	}
	for si := range p.Stages {
		kind := "stateless"
		if p.Stages[si].Stateful() {
			kind = "stateful"
		}
		if si < p.ResolutionStages {
			kind = "resolution"
		}
		out += fmt.Sprintf("  stage %d (%s):\n", si, kind)
		for _, in := range p.Stages[si].Instrs {
			out += "    " + in.String() + "\n"
		}
	}
	for _, a := range p.Accesses {
		out += fmt.Sprintf("  access r%d stage=%d idx=%s pred=%s neg=%v resolvable=%v\n",
			a.Reg, a.Stage, a.Idx, a.Pred, a.PredNeg, a.PredResolvable)
	}
	return out
}
