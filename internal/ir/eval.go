package ir

// RegStore is the tree-walking interpreter's view of register-array and
// match-table storage. RegFile is its one production implementation; the
// bytecode VM takes *RegFile directly.
type RegStore interface {
	// ReadReg returns the current value of register array reg at index idx.
	ReadReg(reg int, idx int) int64
	// WriteReg updates register array reg at index idx.
	WriteReg(reg int, idx int, v int64)
	// LookupTable matches keys against table tbl, returning the
	// installed value or the table's default on a miss. Tables are
	// read-only in the data plane.
	LookupTable(tbl int, keys [3]int64) int64
}

// Env is one packet's execution context: its header fields and its
// packet-local temporaries (PHV metadata).
type Env struct {
	Fields []int64
	Temps  []int64
	// Frame is nil until the bytecode VM first runs a stage on the env.
	// The VM then fits the env once: Frame becomes the single buffer
	// behind Fields and Temps, followed by the VM's scratch slots and the
	// program's constant pools, and the VM addresses every operand as an
	// absolute offset into it (see internal/ir/bytecode).
	Frame []int64
}

// NewEnv allocates an execution context sized for program p: exactly its
// fields and temps, in one backing allocation (the full-capacity slice
// expressions keep appends — which never happen — from aliasing).
func NewEnv(p *Program) *Env {
	nf, nt := len(p.Fields), p.NumTemps
	buf := make([]int64, nf+nt)
	return &Env{
		Fields: buf[:nf:nf],
		Temps:  buf[nf : nf+nt : nf+nt],
	}
}

// ResetFor re-initializes a recycled env for a new packet of the same
// program: arrival fields are copied in (missing trailing fields zeroed)
// and temps are cleared. The rest of a fitted frame is deliberately left
// intact — it holds the bytecode VM's scratch slots and constant pools,
// none of which carry packet state (the VM never uses the discard slot's
// value and never writes the zero slot or a pool) — so a recycled env is
// never fitted again.
func (e *Env) ResetFor(fields []int64) {
	n := copy(e.Fields, fields)
	for i := n; i < len(e.Fields); i++ {
		e.Fields[i] = 0
	}
	for i := range e.Temps {
		e.Temps[i] = 0
	}
}

// Clone returns a deep copy of the environment, preserving the unified
// frame (and the Fields/Temps views into it) when present.
func (e *Env) Clone() *Env {
	nf, nt := len(e.Fields), len(e.Temps)
	n := nf + nt
	if len(e.Frame) > n {
		n = len(e.Frame)
	}
	buf := make([]int64, n)
	if e.Frame != nil {
		copy(buf, e.Frame)
	} else {
		copy(buf, e.Fields)
		copy(buf[nf:], e.Temps)
	}
	c := &Env{
		Fields: buf[:nf:nf],
		Temps:  buf[nf : nf+nt : nf+nt],
	}
	if e.Frame != nil {
		c.Frame = buf
	}
	return c
}

// Load reads an operand's value.
func (e *Env) Load(o Operand) int64 {
	switch o.Kind {
	case KindConst:
		return o.Val
	case KindField:
		return e.Fields[o.ID]
	case KindTemp:
		return e.Temps[o.ID]
	}
	return 0
}

// Store writes v to a field or temp destination. Storing to a None or Const
// destination is a no-op.
func (e *Env) Store(o Operand, v int64) {
	switch o.Kind {
	case KindField:
		e.Fields[o.ID] = v
	case KindTemp:
		e.Temps[o.ID] = v
	}
}

// Mix64 is the deterministic 64-bit finalizer (splitmix64) behind the hash
// builtins. Exposed so workload generators can derive the same indices a
// compiled program will compute.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 is the two-argument Domino hash builtin. The result is non-negative.
func Hash2(a, b int64) int64 {
	h := Mix64(Mix64(uint64(a)) ^ uint64(b))
	return int64(h >> 1)
}

// Hash3 is the three-argument Domino hash builtin. The result is
// non-negative.
func Hash3(a, b, c int64) int64 {
	h := Mix64(Mix64(Mix64(uint64(a))^uint64(b)) ^ uint64(c))
	return int64(h >> 1)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// predHolds reports whether the instruction's predicate allows execution.
func predHolds(in *Instr, e *Env) bool {
	if in.Pred.IsNone() {
		return true
	}
	truth := e.Load(in.Pred) != 0
	return truth != in.PredNeg
}

// ExecInstr executes one instruction against env and regs.
// Division and modulo by zero yield zero (safe dataplane semantics).
// Shift amounts are clamped to [0, 63].
func ExecInstr(in *Instr, e *Env, regs RegStore) {
	if !predHolds(in, e) {
		return
	}
	switch in.Op {
	case OpNop:
		return
	case OpRdReg:
		idx := e.Load(in.Idx)
		e.Store(in.Dst, regs.ReadReg(in.Reg, int(idx)))
		return
	case OpWrReg:
		idx := e.Load(in.Idx)
		regs.WriteReg(in.Reg, int(idx), e.Load(in.A))
		return
	case OpLookup:
		keys := [3]int64{e.Load(in.A), e.Load(in.B), e.Load(in.C)}
		e.Store(in.Dst, regs.LookupTable(in.Reg, keys))
		return
	}
	a := e.Load(in.A)
	var v int64
	switch in.Op {
	case OpMov:
		v = a
	case OpNot:
		v = b2i(a == 0)
	case OpNeg:
		v = -a
	case OpSelect:
		if a != 0 {
			v = e.Load(in.B)
		} else {
			v = e.Load(in.C)
		}
	case OpHash2:
		v = Hash2(a, e.Load(in.B))
	case OpHash3:
		v = Hash3(a, e.Load(in.B), e.Load(in.C))
	default:
		b := e.Load(in.B)
		switch in.Op {
		case OpAdd:
			v = a + b
		case OpSub:
			v = a - b
		case OpMul:
			v = a * b
		case OpDiv:
			if b == 0 {
				v = 0
			} else {
				v = a / b
			}
		case OpMod:
			if b == 0 {
				v = 0
			} else {
				v = a % b
			}
		case OpAnd:
			v = a & b
		case OpOr:
			v = a | b
		case OpXor:
			v = a ^ b
		case OpShl:
			v = a << clampShift(b)
		case OpShr:
			v = a >> clampShift(b)
		case OpEq:
			v = b2i(a == b)
		case OpNe:
			v = b2i(a != b)
		case OpLt:
			v = b2i(a < b)
		case OpLe:
			v = b2i(a <= b)
		case OpGt:
			v = b2i(a > b)
		case OpGe:
			v = b2i(a >= b)
		case OpLAnd:
			v = b2i(a != 0 && b != 0)
		case OpLOr:
			v = b2i(a != 0 || b != 0)
		case OpMax:
			if a > b {
				v = a
			} else {
				v = b
			}
		case OpMin:
			if a < b {
				v = a
			} else {
				v = b
			}
		default:
			panic("ir: unknown opcode " + in.Op.String())
		}
	}
	e.Store(in.Dst, v)
}

// ExecStage executes all instructions of one stage, in order.
func ExecStage(s *Stage, e *Env, regs RegStore) {
	for i := range s.Instrs {
		ExecInstr(&s.Instrs[i], e, regs)
	}
}

// AccessObserver receives every stateful instruction that actually executes
// (its predicate already evaluated against the live environment), with the
// raw register index it is about to use. write distinguishes OpWrReg from
// OpRdReg. Observers see the access immediately before it happens, so the
// sequence of observations across packets IS the state's access order.
type AccessObserver func(reg int, idx int64, write bool)

// ExecStageObserved executes the stage like ExecStage but reports each
// executed OpRdReg/OpWrReg to obs first. Because the predicate and index are
// evaluated at the same instant the interpreter evaluates them, the report
// is exact even when the index or predicate is computed earlier in the same
// stage (fused read-modify-write clusters).
func ExecStageObserved(s *Stage, e *Env, regs RegStore, obs AccessObserver) {
	for i := range s.Instrs {
		in := &s.Instrs[i]
		if obs != nil && in.Op.IsStateful() && predHolds(in, e) {
			obs(in.Reg, e.Load(in.Idx), in.Op == OpWrReg)
		}
		ExecInstr(in, e, regs)
	}
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
