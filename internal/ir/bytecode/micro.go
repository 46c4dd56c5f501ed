package bytecode

import (
	"fmt"
	"math"

	"mp5/internal/ir"
)

// Quickening: Compile emits one fixed-width three-address micro-op per
// PVSM instruction. Assembly resolves every operand to a (bank, index)
// pair over the constant pool, header fields, and temps; after the fusion
// peephole, finalize flattens those pairs into absolute offsets over the
// env's unified frame
//
//	[ fields | temps | discard | zero | stage0 pool | stage1 pool | ... ]
//
// so the hot loop performs exactly one indexed load per operand. The VM
// fits an env with that frame on its first stage call (see fit); every
// stage owns a disjoint pool region, so the pools are copied in once per
// env and every later stage call goes straight to the loop. The
// differential tests in vm_test.go run the micro-ops against the
// tree-walking interpreter, and the golden files pin their listing.

// Operand banks — the assembly-time form, flattened away by finalize.
// Discarded destinations resolve to the frame's discard slot and None
// sources to its never-written-by-code zero slot, so the hot loop needs
// no operand-kind branches and None never enters the constant pool.
const (
	bankC byte = iota // stage constant pool
	bankF             // env.Fields
	bankT             // env.Temps
	bankS             // scratch: [0] discard target, [1] constant zero
)

// scratchSlots sit between the temps and the stage pools, shared by every
// stage: a discard slot absorbing dropped destinations and a zero slot
// feeding None sources (never written after allocation).
const scratchSlots = 2

// pkNone marks an unpredicated micro-op; pkNeg flags an inverted predicate
// (if-else else-arms); pkPartial marks a fused RMW whose ALU runs
// regardless of the predicate (only the two register accesses are gated —
// the shape the compiler emits for guarded state updates). All three fit
// alongside the 2-bit bank in one byte; pkNone has every flag bit set, so
// flag tests must exclude it explicitly.
const (
	pkNone    byte = 0xff
	pkNeg     byte = 0x80
	pkPartial byte = 0x40
)

// opFusedRMW is the one superinstruction: a read-modify-write triple
//
//	t1 = reg[idx]; t2 = t1 ALU y; reg[idx] = t2
//
// under one shared predicate, collapsed to a single dispatch. The fused op
// still writes both intermediate destinations (t1, t2) — later uses see
// them — and still reports both C1 observations (read then write, around
// the ALU) exactly where the unfused sequence would. The ALU opcode rides
// in the x field. fuseMicro proves the pattern safe before fusing.
//
// The value extends ir's dense opcode range by one so the dispatch switch
// stays a jump table; a sparse outlier (say 255) would demote it to a
// comparison tree.
const opFusedRMW = ir.OpWrReg + 1

// microOp is one quickened instruction: 20 bytes against the interpreter's
// ~176-byte ir.Instr, so whole programs stay cache-resident. The bank
// bytes and the bank bits of pk exist only during assembly and fusion;
// finalize folds them into the index fields (absolute frame offsets) and
// the dispatch loop never reads them.
type microOp struct {
	op         byte // ir.Op, narrowed (or opFusedRMW)
	pk         byte // pkNeg|pkPartial flags (bank bits until finalize), or pkNone
	dk         byte // destination bank (bankF, bankT, or bankS)
	ak, bk, ck byte // source banks
	x          byte // fused-RMW ALU opcode
	reg        uint16
	pi, di     uint16
	ai, bi, ci uint16
}

// finalize flattens every micro-op's (bank, index) pairs into absolute
// offsets over the unified frame, leaving pk holding only its flag bits.
// constBase is the start of this stage's disjoint pool region (past the
// fields, temps, scratch slots, and every earlier stage's pool). It runs
// once per stage, after fusion (whose pattern matching compares bank-form
// operands). The only failure is structural: a frame too large for uint16
// addressing, which no Validate-clean program approaches.
func (a *asm) finalize(constBase int) error {
	nf, nt := a.nf, a.nt
	discard := nf + nt
	zero := discard + 1
	if top := constBase + len(a.consts); top > math.MaxUint16+1 {
		return fmt.Errorf("frame of %d slots exceeds uint16 addressing", top)
	}
	abs := func(k byte, i uint16) uint16 {
		switch k & 3 {
		case bankF:
			return i
		case bankT:
			return uint16(nf) + i
		case bankC:
			return uint16(constBase) + i
		default: // bankS
			if i == 0 {
				return uint16(discard)
			}
			return uint16(zero)
		}
	}
	for j := range a.micro {
		m := &a.micro[j]
		m.ai = abs(m.ak, m.ai)
		m.bi = abs(m.bk, m.bi)
		m.ci = abs(m.ck, m.ci)
		m.di = abs(m.dk, m.di)
		if m.pk != pkNone {
			m.pi = abs(m.pk, m.pi)
			m.pk &= pkNeg | pkPartial
		}
	}
	return nil
}

// canFuseRMW reports whether three consecutive micro-ops form a safely
// fusable read-modify-write: same predicate and register throughout, the
// ALU consuming the read's destination, the write storing the ALU's
// destination and indexing with the read's untouched index source.
func canFuseRMW(rd, alu, wr *microOp) bool {
	if ir.Op(rd.op) != ir.OpRdReg || ir.Op(wr.op) != ir.OpWrReg {
		return false
	}
	if !binary(ir.Op(alu.op)) {
		return false
	}
	if rd.pk != wr.pk || rd.pi != wr.pi {
		return false
	}
	// Either all three share one predicate, or the ALU is unpredicated
	// between gated accesses (the partial variant, handled at exec time).
	if !(alu.pk == rd.pk && alu.pi == rd.pi) &&
		!(alu.pk == pkNone && rd.pk != pkNone) {
		return false
	}
	if rd.reg != wr.reg || rd.ck != wr.ck || rd.ci != wr.ci {
		return false
	}
	// t1 must feed the ALU's A slot and t2 must be the written value.
	// (Discarded destinations land in scratch slot 0, which no source
	// ever resolves to, so a dropped t1/t2 can never false-match here.)
	if alu.ak != rd.dk || alu.ai != rd.di {
		return false
	}
	if wr.ak != alu.dk || wr.ai != alu.di {
		return false
	}
	// Fusing evaluates the index and predicate once up front, so neither
	// may be clobbered by the two intermediate writes.
	for _, dst := range [2]microOp{*rd, *alu} {
		if dst.dk == rd.ck && dst.di == rd.ci {
			return false
		}
		if rd.pk != pkNone && dst.dk == rd.pk&3 && dst.di == rd.pi {
			return false
		}
	}
	return true
}

// fuseMicro runs the peephole pass over a stage's quickened stream,
// collapsing every provably safe read-modify-write triple into one
// opFusedRMW. The pass rewrites in place (the write cursor never passes
// the read cursor).
func fuseMicro(ops []microOp) []microOp {
	out := ops[:0]
	for j := 0; j < len(ops); j++ {
		if j+2 < len(ops) && canFuseRMW(&ops[j], &ops[j+1], &ops[j+2]) {
			m := ops[j] // keeps pk/pi, reg, and the index in ck/ci
			m.op = byte(opFusedRMW)
			m.x = ops[j+1].op
			m.ak, m.ai = ops[j].dk, ops[j].di     // t1 destination
			m.bk, m.bi = ops[j+1].bk, ops[j+1].bi // ALU's B source
			m.dk, m.di = ops[j+1].dk, ops[j+1].di // t2 destination
			if ops[j+1].pk == pkNone && m.pk != pkNone {
				// The ALU must run even when the accesses are gated:
				// opt out of the generic predicate skip and re-derive
				// the predicate inside the fused case.
				m.pk |= pkPartial
			}
			out = append(out, m)
			j += 2
			continue
		}
		out = append(out, ops[j])
	}
	return out
}

// sitesOf lists a finalized stage's register-access sites in micro-op order
// and reports whether the stage is stable (StageProgram.Stable): no
// micro-op writes a slot that a later site reads as its index or
// predicate. A site's own micro-op reads both before writing anything
// (canFuseRMW keeps a fused op's t1 and t2 off them), so only earlier
// writes count. A predicated write counts whether or not it would run.
func sitesOf(micro []microOp) ([]Site, bool) {
	var sites []Site
	written := map[uint16]bool{}
	stable := true
	for j := range micro {
		m := &micro[j]
		op := ir.Op(m.op)
		if op == ir.OpRdReg || op == ir.OpWrReg || op == opFusedRMW {
			s := Site{Reg: int(m.reg), Idx: int(m.ci), Pred: -1}
			if m.pk != pkNone {
				s.Pred, s.Neg = int(m.pi), m.pk&pkNeg != 0
			}
			if written[m.ci] || (s.Pred >= 0 && written[m.pi]) {
				stable = false
			}
			sites = append(sites, s)
		}
		switch op {
		case ir.OpWrReg: // writes a register, no frame slot
		case opFusedRMW:
			written[m.ai], written[m.di] = true, true // t1 and t2
		default:
			written[m.di] = true
		}
	}
	return sites, stable
}

// execMicro runs a stage: one dispatch per source instruction, one indexed
// frame load per operand. The caller has already fitted the frame to the
// stage's layout; compiled programs are fully validated, so this path has
// no error exits.
func execMicro(sp *StageProgram, frame []int64, regs *ir.RegFile, obs ir.AccessObserver) {
	for i := range sp.micro {
		m := &sp.micro[i]
		if m.pk != pkNone && m.pk&pkPartial == 0 {
			if (frame[m.pi] != 0) == (m.pk&pkNeg != 0) {
				continue
			}
		}
		// Both ALU sources load unconditionally (unused slots point at
		// a scratch slot), so the loads issue before the dispatch resolves.
		a := frame[m.ai]
		b := frame[m.bi]
		var v int64
		switch ir.Op(m.op) {
		case ir.OpMov:
			v = a
		case ir.OpAdd:
			v = a + b
		case ir.OpSub:
			v = a - b
		case ir.OpMul:
			v = a * b
		case ir.OpDiv:
			if b != 0 {
				v = a / b
			}
		case ir.OpMod:
			if b != 0 {
				v = a % b
			}
		case ir.OpAnd:
			v = a & b
		case ir.OpOr:
			v = a | b
		case ir.OpXor:
			v = a ^ b
		case ir.OpShl:
			v = a << clampShift(b)
		case ir.OpShr:
			v = a >> clampShift(b)
		case ir.OpEq:
			v = b2i(a == b)
		case ir.OpNe:
			v = b2i(a != b)
		case ir.OpLt:
			v = b2i(a < b)
		case ir.OpLe:
			v = b2i(a <= b)
		case ir.OpGt:
			v = b2i(a > b)
		case ir.OpGe:
			v = b2i(a >= b)
		case ir.OpLAnd:
			v = b2i(a != 0 && b != 0)
		case ir.OpLOr:
			v = b2i(a != 0 || b != 0)
		case ir.OpMax:
			v = a
			if b > v {
				v = b
			}
		case ir.OpMin:
			v = a
			if b < v {
				v = b
			}
		case ir.OpNot:
			v = b2i(a == 0)
		case ir.OpNeg:
			v = -a
		case ir.OpSelect:
			if a != 0 {
				v = b
			} else {
				v = frame[m.ci]
			}
		case ir.OpHash2:
			v = ir.Hash2(a, b)
		case ir.OpHash3:
			v = ir.Hash3(a, b, frame[m.ci])
		case ir.OpLookup:
			v = regs.LookupTable(int(m.reg), [3]int64{a, b, frame[m.ci]})
		case ir.OpRdReg:
			idx := frame[m.ci]
			if obs != nil {
				obs(int(m.reg), idx, false)
			}
			v = regs.ReadReg(int(m.reg), int(idx))
		case ir.OpWrReg:
			idx := frame[m.ci]
			if obs != nil {
				obs(int(m.reg), idx, true)
			}
			regs.WriteReg(int(m.reg), int(idx), a)
			continue // no destination
		case opFusedRMW:
			// In the partial variant the generic gate above passed
			// through; the accesses are gated here while the ALU (below)
			// always runs, exactly like the unfused sequence.
			held := true
			if m.pk != pkNone && m.pk&pkPartial != 0 {
				held = (frame[m.pi] != 0) != (m.pk&pkNeg != 0)
			}
			var v1 int64
			idx := frame[m.ci]
			if held {
				if obs != nil {
					obs(int(m.reg), idx, false)
				}
				v1 = regs.ReadReg(int(m.reg), int(idx))
				// t1 lands before the B source loads, so an ALU whose B
				// is t1 (or its own destination) sees the unfused values.
				frame[m.ai] = v1
			} else {
				v1 = frame[m.ai] // skipped read: ALU sees stale t1
			}
			y := frame[m.bi]
			var v2 int64
			switch ir.Op(m.x) {
			case ir.OpAdd:
				v2 = v1 + y
			case ir.OpSub:
				v2 = v1 - y
			case ir.OpMul:
				v2 = v1 * y
			case ir.OpDiv:
				if y != 0 {
					v2 = v1 / y
				}
			case ir.OpMod:
				if y != 0 {
					v2 = v1 % y
				}
			case ir.OpAnd:
				v2 = v1 & y
			case ir.OpOr:
				v2 = v1 | y
			case ir.OpXor:
				v2 = v1 ^ y
			case ir.OpShl:
				v2 = v1 << clampShift(y)
			case ir.OpShr:
				v2 = v1 >> clampShift(y)
			case ir.OpEq:
				v2 = b2i(v1 == y)
			case ir.OpNe:
				v2 = b2i(v1 != y)
			case ir.OpLt:
				v2 = b2i(v1 < y)
			case ir.OpLe:
				v2 = b2i(v1 <= y)
			case ir.OpGt:
				v2 = b2i(v1 > y)
			case ir.OpGe:
				v2 = b2i(v1 >= y)
			case ir.OpLAnd:
				v2 = b2i(v1 != 0 && y != 0)
			case ir.OpLOr:
				v2 = b2i(v1 != 0 || y != 0)
			case ir.OpMax:
				v2 = v1
				if y > v2 {
					v2 = y
				}
			case ir.OpMin:
				v2 = v1
				if y < v2 {
					v2 = y
				}
			}
			frame[m.di] = v2
			if held {
				if obs != nil {
					obs(int(m.reg), idx, true)
				}
				regs.WriteReg(int(m.reg), int(idx), v2)
			}
			continue // both destinations already written
		}
		frame[m.di] = v
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func clampShift(b int64) uint {
	if b < 0 {
		return 0
	}
	if b > 63 {
		return 63
	}
	return uint(b)
}
