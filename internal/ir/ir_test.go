package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

// flatStore is a minimal RegStore for interpreter tests. Table lookups
// return key0+key1 so tests can verify operand plumbing.
type flatStore map[[2]int]int64

func (s flatStore) ReadReg(reg, idx int) int64          { return s[[2]int{reg, idx}] }
func (s flatStore) WriteReg(reg, idx int, v int64)      { s[[2]int{reg, idx}] = v }
func (s flatStore) LookupTable(t int, k [3]int64) int64 { return k[0] + k[1] }

func run(t *testing.T, in Instr, fields, temps []int64) *Env {
	t.Helper()
	e := &Env{Fields: fields, Temps: temps}
	ExecInstr(&in, e, flatStore{})
	return e
}

func TestExecArithmetic(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, -1},
		{OpMul, 3, 4, 12},
		{OpDiv, 12, 4, 3},
		{OpDiv, 12, 0, 0}, // safe division
		{OpMod, 13, 4, 1},
		{OpMod, 13, 0, 0}, // safe modulo
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 3, 2, 12},
		{OpShr, -8, 1, -4},                    // arithmetic shift
		{OpShl, 1, 200, -9223372036854775808}, // clamp to 63: 1<<63 wraps negative
		{OpShr, 5, -1, 5},                     // negative shift clamps to 0
		{OpEq, 4, 4, 1},
		{OpNe, 4, 4, 0},
		{OpLt, 3, 4, 1},
		{OpLe, 4, 4, 1},
		{OpGt, 4, 3, 1},
		{OpGe, 3, 4, 0},
		{OpLAnd, 2, 3, 1},
		{OpLAnd, 2, 0, 0},
		{OpLOr, 0, 3, 1},
		{OpLOr, 0, 0, 0},
		{OpMax, -3, 4, 4},
		{OpMin, -3, 4, -3},
	}
	for _, c := range cases {
		e := run(t, Instr{Op: c.op, Dst: Temp(0), A: Const(c.a), B: Const(c.b)}, nil, []int64{0})
		if e.Temps[0] != c.want {
			t.Errorf("%v(%d, %d) = %d, want %d", c.op, c.a, c.b, e.Temps[0], c.want)
		}
	}
}

// TestExecDivModEdges pins the interpreter's defined-error semantics on
// the division paths: any divisor of zero yields zero (never a Go runtime
// panic), and the MinInt64 / -1 corner wraps like Go's quotient (Go spec:
// x / -1 == -x with wraparound, no panic). The bytecode VM is held to the
// exact same results by the differential tests in ir/bytecode.
func TestExecDivModEdges(t *testing.T) {
	const minI = int64(-1 << 63)
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpDiv, 0, 0, 0},
		{OpDiv, minI, 0, 0},
		{OpMod, minI, 0, 0},
		{OpDiv, minI, -1, minI}, // wraps, does not panic
		{OpMod, minI, -1, 0},
		{OpDiv, minI, 1, minI},
		{OpMod, -7, 3, -1}, // truncated toward zero, like Go
		{OpMod, 7, -3, 1},
	}
	for _, c := range cases {
		e := run(t, Instr{Op: c.op, Dst: Temp(0), A: Const(c.a), B: Const(c.b)}, nil, []int64{99})
		if e.Temps[0] != c.want {
			t.Errorf("%v(%d, %d) = %d, want %d", c.op, c.a, c.b, e.Temps[0], c.want)
		}
	}
}

// TestExecRegIndexOutOfRange: the interpreter passes register indices to
// the RegStore raw — negative, huge, whatever the program computed.
// Clamping into [0, size) is the store's job (ClampIndex), so a
// store that records raw indices must see them unmodified and in
// instruction order, reads and writes alike.
func TestExecRegIndexOutOfRange(t *testing.T) {
	s := flatStore{}
	var obs []int64
	st := Stage{Instrs: []Instr{
		{Op: OpWrReg, Reg: 0, Idx: Const(-5), A: Const(11)},
		{Op: OpRdReg, Dst: Temp(0), Reg: 0, Idx: Const(-5)},
		{Op: OpWrReg, Reg: 0, Idx: Const(1 << 40), A: Temp(0)},
		{Op: OpRdReg, Dst: Temp(1), Reg: 0, Idx: Const(1 << 40)},
	}}
	e := &Env{Temps: make([]int64, 2)}
	ExecStageObserved(&st, e, s, func(reg int, idx int64, write bool) {
		obs = append(obs, idx)
	})
	if s[[2]int{0, -5}] != 11 || e.Temps[0] != 11 {
		t.Errorf("negative index not passed raw: store=%v temps=%v", s, e.Temps)
	}
	if s[[2]int{0, 1 << 40}] != 11 || e.Temps[1] != 11 {
		t.Errorf("huge index not passed raw: store=%v temps=%v", s, e.Temps)
	}
	want := []int64{-5, -5, 1 << 40, 1 << 40}
	for i, w := range want {
		if i >= len(obs) || obs[i] != w {
			t.Fatalf("observed raw indices %v, want %v", obs, want)
		}
	}
}

func TestExecUnaryAndSelect(t *testing.T) {
	e := run(t, Instr{Op: OpNot, Dst: Temp(0), A: Const(0)}, nil, []int64{0})
	if e.Temps[0] != 1 {
		t.Errorf("not 0 = %d", e.Temps[0])
	}
	e = run(t, Instr{Op: OpNeg, Dst: Temp(0), A: Const(5)}, nil, []int64{0})
	if e.Temps[0] != -5 {
		t.Errorf("neg 5 = %d", e.Temps[0])
	}
	e = run(t, Instr{Op: OpSelect, Dst: Temp(0), A: Const(1), B: Const(10), C: Const(20)}, nil, []int64{0})
	if e.Temps[0] != 10 {
		t.Errorf("select true = %d", e.Temps[0])
	}
	e = run(t, Instr{Op: OpSelect, Dst: Temp(0), A: Const(0), B: Const(10), C: Const(20)}, nil, []int64{0})
	if e.Temps[0] != 20 {
		t.Errorf("select false = %d", e.Temps[0])
	}
}

func TestPredicateGating(t *testing.T) {
	// Pred false: destination untouched.
	e := run(t, Instr{Op: OpMov, Dst: Temp(0), A: Const(9), Pred: Const(0)}, nil, []int64{42})
	if e.Temps[0] != 42 {
		t.Errorf("predicated-off mov wrote %d", e.Temps[0])
	}
	// Negated pred false value → executes.
	e = run(t, Instr{Op: OpMov, Dst: Temp(0), A: Const(9), Pred: Const(0), PredNeg: true}, nil, []int64{42})
	if e.Temps[0] != 9 {
		t.Errorf("negated predicate did not execute: %d", e.Temps[0])
	}
}

func TestRegisterOps(t *testing.T) {
	s := flatStore{}
	e := &Env{Temps: []int64{0, 5}}
	wr := Instr{Op: OpWrReg, Reg: 2, Idx: Const(3), A: Temp(1)}
	ExecInstr(&wr, e, s)
	if s[[2]int{2, 3}] != 5 {
		t.Fatalf("write failed: %v", s)
	}
	rd := Instr{Op: OpRdReg, Reg: 2, Idx: Const(3), Dst: Temp(0)}
	ExecInstr(&rd, e, s)
	if e.Temps[0] != 5 {
		t.Fatalf("read = %d", e.Temps[0])
	}
	// Predicated-off write leaves state alone.
	wrOff := Instr{Op: OpWrReg, Reg: 2, Idx: Const(3), A: Const(99), Pred: Const(0)}
	ExecInstr(&wrOff, e, s)
	if s[[2]int{2, 3}] != 5 {
		t.Fatal("predicated-off write modified state")
	}
}

func TestHashDeterminismAndRange(t *testing.T) {
	prop := func(a, b, c int64) bool {
		h2a, h2b := Hash2(a, b), Hash2(a, b)
		h3a, h3b := Hash3(a, b, c), Hash3(a, b, c)
		return h2a == h2b && h3a == h3b && h2a >= 0 && h3a >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if Hash2(1, 2) == Hash2(2, 1) {
		t.Error("hash2 should not be trivially symmetric")
	}
}

func TestEnvCloneIsDeep(t *testing.T) {
	e := &Env{Fields: []int64{1, 2}, Temps: []int64{3}}
	c := e.Clone()
	c.Fields[0] = 100
	c.Temps[0] = 100
	if e.Fields[0] != 1 || e.Temps[0] != 3 {
		t.Error("clone aliases the original")
	}
}

func TestRegInfoInitialValue(t *testing.T) {
	// Domino fill rule: {v} fills everything; longer lists leave the
	// tail zero.
	r := RegInfo{Size: 4, Init: []int64{7}}
	for i := 0; i < 4; i++ {
		if r.InitialValue(i) != 7 {
			t.Errorf("fill rule broken at %d", i)
		}
	}
	r = RegInfo{Size: 4, Init: []int64{1, 2}}
	want := []int64{1, 2, 0, 0}
	for i, w := range want {
		if r.InitialValue(i) != w {
			t.Errorf("init[%d] = %d, want %d", i, r.InitialValue(i), w)
		}
	}
}

func validProgram() *Program {
	return &Program{
		Name:     "t",
		Fields:   []string{"a", "b"},
		NumTemps: 2,
		Regs: []ir_RegInfoAlias{
			{Name: "r", Size: 4, Stage: 1, Sharded: true},
		},
		Stages: []Stage{
			{Instrs: []Instr{{Op: OpMov, Dst: Temp(0), A: Field(0), Reg: -1}}},
			{Instrs: []Instr{
				{Op: OpRdReg, Dst: Temp(1), Reg: 0, Idx: Temp(0)},
				{Op: OpWrReg, Reg: 0, Idx: Temp(0), A: Temp(1)},
			}},
		},
		Accesses:         []Access{{Reg: 0, Stage: 1, Idx: Temp(0), PredResolvable: true}},
		ResolutionStages: 1,
	}
}

// ir_RegInfoAlias exists so the literal above stays readable.
type ir_RegInfoAlias = RegInfo

func TestValidateAcceptsGoodProgram(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"field out of range", func(p *Program) {
			p.Stages[0].Instrs[0].A = Field(9)
		}, "field id 9 out of range"},
		{"temp out of range", func(p *Program) {
			p.Stages[0].Instrs[0].Dst = Temp(7)
		}, "temp id 7 out of range"},
		{"reg out of range", func(p *Program) {
			p.Stages[1].Instrs[0].Reg = 3
		}, "register id 3 out of range"},
		{"reg placed elsewhere", func(p *Program) {
			p.Regs[0].Stage = 0
		}, "placed in stage 0 but used in stage 1"},
		{"stateful in resolution", func(p *Program) {
			p.ResolutionStages = 2
			p.Accesses = nil
		}, "stateful op inside resolution stage"},
		{"access stage range", func(p *Program) {
			p.Accesses[0].Stage = 0
		}, "outside stateful region"},
		{"sharded access without index", func(p *Program) {
			p.Accesses[0].Idx = None()
		}, "lacks a resolved index"},
		{"accesses out of order", func(p *Program) {
			p.Stages = append(p.Stages, Stage{Instrs: []Instr{
				{Op: OpMov, Dst: Temp(0), A: Const(1), Reg: -1},
			}})
			p.Accesses = append(p.Accesses, Access{Reg: 0, Stage: 2, Idx: Temp(0)})
			p.Accesses[0], p.Accesses[1] = p.Accesses[1], p.Accesses[0]
		}, "not in stage order"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := validProgram()
			c.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a broken program")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want substring %q", err, c.want)
			}
		})
	}
}

func TestStageHelpers(t *testing.T) {
	p := validProgram()
	if p.FieldIndex("b") != 1 || p.FieldIndex("zz") != -1 {
		t.Error("FieldIndex broken")
	}
	if p.RegIndex("r") != 0 || p.RegIndex("zz") != -1 {
		t.Error("RegIndex broken")
	}
	if got := p.StatefulStages(); len(got) != 1 || got[0] != 1 {
		t.Errorf("StatefulStages = %v", got)
	}
	if regs := p.Stages[1].RegsUsed(); len(regs) != 1 || regs[0] != 0 {
		t.Errorf("RegsUsed = %v", regs)
	}
	if p.Stages[0].Stateful() || !p.Stages[1].Stateful() {
		t.Error("Stateful misreports")
	}
}

func TestDumpAndStrings(t *testing.T) {
	p := validProgram()
	d := p.Dump()
	for _, want := range []string{"program t", "reg r0 r[4]", "resolution", "stateful", "access r0"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump lacks %q:\n%s", want, d)
		}
	}
	in := Instr{Op: OpSelect, Dst: Temp(0), A: Temp(1), B: Const(1), C: Const(2), Pred: Temp(1), PredNeg: true}
	if got := in.String(); !strings.Contains(got, "?") || !strings.Contains(got, "[!t1]") {
		t.Errorf("instr string = %q", got)
	}
	for op := OpNop; op <= OpWrReg; op++ {
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
}

// TestExecStagePropertyDeterminism: executing a stage twice from the same
// environment and store state yields identical results.
func TestExecStagePropertyDeterminism(t *testing.T) {
	prop := func(a, b int64, sel bool) bool {
		st := Stage{Instrs: []Instr{
			{Op: OpAdd, Dst: Temp(0), A: Const(a), B: Const(b), Reg: -1},
			{Op: OpSelect, Dst: Temp(1), A: boolConst(sel), B: Temp(0), C: Const(0), Reg: -1},
			{Op: OpHash2, Dst: Temp(2), A: Temp(1), B: Const(b), Reg: -1},
		}}
		e1 := &Env{Temps: make([]int64, 3)}
		e2 := &Env{Temps: make([]int64, 3)}
		ExecStage(&st, e1, flatStore{})
		ExecStage(&st, e2, flatStore{})
		for i := range e1.Temps {
			if e1.Temps[i] != e2.Temps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func boolConst(b bool) Operand {
	if b {
		return Const(1)
	}
	return Const(0)
}
