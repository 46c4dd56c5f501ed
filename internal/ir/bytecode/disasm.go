package bytecode

import (
	"fmt"
	"strings"

	"mp5/internal/ir"
)

// DisasmStage renders one compiled stage as a deterministic listing of the
// micro-ops the VM executes: a header with the op and pool counts, then one
// line per micro-op in the source IR's notation (ir.Instr.String), with
// operands read back from their frame offsets — constants by value, the
// scratch slots as "_" — and a fused read-modify-write as its three parts
// in braces. Pooling, fusion and operand resolution changes therefore show
// in golden-file diffs.
func DisasmStage(sp *StageProgram) string {
	var b strings.Builder
	fused := 0
	for i := range sp.micro {
		if ir.Op(sp.micro[i].op) == opFusedRMW {
			fused++
		}
	}
	fmt.Fprintf(&b, "; %d micro-ops (%d fused), %d consts", len(sp.micro), fused, len(sp.Consts))
	if sp.Stateful {
		b.WriteString(", stateful")
	}
	b.WriteByte('\n')
	if len(sp.Consts) > 0 {
		b.WriteString("; pool:")
		for i, v := range sp.Consts {
			fmt.Fprintf(&b, " [%d]=%d", i, v)
		}
		b.WriteByte('\n')
	}
	for i := range sp.micro {
		fmt.Fprintf(&b, "%4d: %s\n", i, sp.render(&sp.micro[i]))
	}
	return b.String()
}

// render writes one micro-op back in source notation.
func (sp *StageProgram) render(m *microOp) string {
	in := ir.Instr{Op: ir.Op(m.op), Reg: int(m.reg),
		Dst: sp.operand(m.di), A: sp.operand(m.ai), B: sp.operand(m.bi), C: sp.operand(m.ci), Idx: sp.operand(m.ci)}
	if m.pk != pkNone {
		in.Pred, in.PredNeg = sp.operand(m.pi), m.pk&pkNeg != 0
	}
	if in.Op != opFusedRMW {
		return in.String()
	}
	// A fused op keeps t1 in A and t2 in Dst; its ALU opcode rides in x.
	rd := ir.Instr{Op: ir.OpRdReg, Dst: in.A, Idx: in.Idx, Reg: in.Reg, Pred: in.Pred, PredNeg: in.PredNeg}
	alu := ir.Instr{Op: ir.Op(m.x), Dst: in.Dst, A: in.A, B: in.B, Pred: in.Pred, PredNeg: in.PredNeg}
	wr := ir.Instr{Op: ir.OpWrReg, Idx: in.Idx, A: in.Dst, Reg: in.Reg, Pred: in.Pred, PredNeg: in.PredNeg}
	if m.pk != pkNone && m.pk&pkPartial != 0 {
		alu.Pred, alu.PredNeg = ir.None(), false // only the accesses are gated
	}
	return fmt.Sprintf("rmw { %s; %s; %s }", rd, alu, wr)
}

// operand names frame offset off as the source operand it was resolved
// from: a field, a temp, a pooled constant, or "_" for the scratch slots.
func (sp *StageProgram) operand(off uint16) ir.Operand {
	i := int(off)
	switch {
	case i < sp.nf:
		return ir.Field(i)
	case i < sp.nf+sp.nt:
		return ir.Temp(i - sp.nf)
	case i < sp.nf+sp.nt+scratchSlots:
		return ir.None()
	}
	return ir.Const(sp.pools[i-sp.nf-sp.nt-scratchSlots])
}

// Disasm renders every stage of a compiled program, separated by stage
// headers and preceded by the frame layout, for golden-file tests and
// debugging.
func Disasm(p *Program) string {
	var b strings.Builder
	if len(p.Stages) > 0 {
		sp := &p.Stages[0]
		fmt.Fprintf(&b, "; frame: %d fields, %d temps, %d scratch, %d pool = %d slots\n",
			sp.nf, sp.nt, scratchSlots, len(sp.pools), sp.frameLen)
	}
	for si := range p.Stages {
		fmt.Fprintf(&b, "== stage %d ==\n", si)
		b.WriteString(DisasmStage(&p.Stages[si]))
	}
	return b.String()
}
