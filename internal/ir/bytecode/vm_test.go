package bytecode

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mp5/internal/ir"
)

// testRegs and testTables are the register and table declarations every
// hand-built test program carries, so both executors run against the
// ir.RegFile the engines use. The arrays are wide enough that the indices
// the tests compute rarely collide after clamping; the raw indices each
// executor passes are compared through the observer stream.
var (
	testRegs = []ir.RegInfo{
		{Name: "r0", ID: 0, Size: 64},
		{Name: "r1", ID: 1, Size: 64},
		{Name: "r2", ID: 2, Size: 64},
	}
	testTables  = []ir.TableInfo{{Name: "tbl0", ID: 0, Keys: 3, Default: -5}}
	testEntries = []ir.TableEntry{{Table: 0, Keys: [3]int64{0, 1, 0}, Value: 77}}
)

// testProgram declares nf fields, nt temps, testRegs and testTables around
// the given stages.
func testProgram(nf, nt int, stages ...ir.Stage) *ir.Program {
	return &ir.Program{Fields: make([]string, nf), NumTemps: nt, Regs: testRegs,
		Tables: testTables, TableEntries: testEntries, Stages: stages}
}

// regSeed presets register words, keyed (reg, idx), before a run.
type regSeed map[[2]int]int64

// newStore builds p's register file with seed applied.
func newStore(p *ir.Program, seed regSeed) *ir.RegFile {
	rf := ir.NewRegFile(p)
	for k, v := range seed {
		rf.WriteReg(k[0], k[1], v)
	}
	return rf
}

// access records one observed register access for order comparisons.
type access struct {
	Reg   int
	Idx   int64
	Write bool
}

// compileStageT compiles a single stage inside a program context of nf
// fields and nt temps (the frame layout needs both), failing on error.
func compileStageT(t *testing.T, st *ir.Stage, nf, nt int) (*ir.Program, StageProgram) {
	t.Helper()
	p := testProgram(nf, nt, *st)
	bp, err := Compile(p)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p, bp.Stages[0]
}

// sameVals compares slices by value, treating nil and empty as equal (a
// frame-backed env's Fields view is non-nil even when zero-length).
func sameVals(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runBoth executes st through the interpreter and the VM from identical
// environments and register files, returning both (env, registers,
// observed accesses). The VM leg starts from an ir.NewEnv env, which the
// VM fits to the program's frame on the call.
func runBoth(t *testing.T, st *ir.Stage, fields, temps []int64, seed regSeed) (ie, ve *ir.Env, is, vs *ir.RegFile, iobs, vobs []access) {
	t.Helper()
	prog, sp := compileStageT(t, st, len(fields), len(temps))
	ie = &ir.Env{Fields: append([]int64(nil), fields...), Temps: append([]int64(nil), temps...)}
	ve = ir.NewEnv(prog)
	copy(ve.Fields, fields)
	copy(ve.Temps, temps)
	is, vs = newStore(prog, seed), newStore(prog, seed)
	ir.ExecStageObserved(st, ie, is, func(reg int, idx int64, write bool) {
		iobs = append(iobs, access{reg, idx, write})
	})
	if err := new(VM).ExecStageObserved(&sp, ve, vs, func(reg int, idx int64, write bool) {
		vobs = append(vobs, access{reg, idx, write})
	}); err != nil {
		t.Fatalf("VM exec: %v", err)
	}
	return
}

// checkAgree asserts interpreter and VM ended in identical states and
// observed the same accesses in the same order; it returns the VM's
// observations.
func checkAgree(t *testing.T, st *ir.Stage, fields, temps []int64, seed regSeed) []access {
	t.Helper()
	ie, ve, is, vs, iobs, vobs := runBoth(t, st, fields, temps, seed)
	if !sameVals(ie.Fields, ve.Fields) || !sameVals(ie.Temps, ve.Temps) {
		t.Errorf("env diverged:\ninterp fields=%v temps=%v\nvm     fields=%v temps=%v",
			ie.Fields, ie.Temps, ve.Fields, ve.Temps)
	}
	if !reflect.DeepEqual(is.Snapshot(), vs.Snapshot()) {
		t.Errorf("registers diverged:\ninterp %v\nvm     %v", is.Snapshot(), vs.Snapshot())
	}
	if !reflect.DeepEqual(iobs, vobs) {
		t.Errorf("observed accesses diverged:\ninterp %v\nvm     %v", iobs, vobs)
	}
	return vobs
}

// TestDifferentialEdgeCases holds the two executors to identical behavior
// on the interpreter's defined-error paths: division and modulo by zero,
// the wrapping MinInt64 corner, and out-of-range register indices (passed
// raw to the register file by both sides — clamping belongs to the store —
// which the observer stream shows).
func TestDifferentialEdgeCases(t *testing.T) {
	minI := int64(math.MinInt64)
	cases := []struct {
		name string
		st   ir.Stage
		obs  []access // the VM's observed accesses, raw indices
	}{
		{"div by zero", ir.Stage{Instrs: []ir.Instr{
			{Op: ir.OpDiv, Dst: ir.Temp(0), A: ir.Const(12), B: ir.Const(0), Reg: -1},
			{Op: ir.OpDiv, Dst: ir.Temp(1), A: ir.Temp(0), B: ir.Temp(0), Reg: -1},
		}}, nil},
		{"mod by zero", ir.Stage{Instrs: []ir.Instr{
			{Op: ir.OpMod, Dst: ir.Temp(0), A: ir.Const(13), B: ir.Const(0), Reg: -1},
		}}, nil},
		{"min int64 wrap", ir.Stage{Instrs: []ir.Instr{
			{Op: ir.OpDiv, Dst: ir.Temp(0), A: ir.Const(minI), B: ir.Const(-1), Reg: -1},
			{Op: ir.OpMod, Dst: ir.Temp(1), A: ir.Const(minI), B: ir.Const(-1), Reg: -1},
			{Op: ir.OpNeg, Dst: ir.Temp(2), A: ir.Const(minI), Reg: -1},
		}}, nil},
		{"out of range index", ir.Stage{Instrs: []ir.Instr{
			{Op: ir.OpWrReg, Reg: 1, Idx: ir.Const(-7), A: ir.Const(5)},
			{Op: ir.OpRdReg, Dst: ir.Temp(0), Reg: 1, Idx: ir.Const(1 << 40)},
			{Op: ir.OpWrReg, Reg: 1, Idx: ir.Const(1 << 40), A: ir.Temp(0)},
		}}, []access{{1, -7, true}, {1, 1 << 40, false}, {1, 1 << 40, true}}},
		{"shift clamps", ir.Stage{Instrs: []ir.Instr{
			{Op: ir.OpShl, Dst: ir.Temp(0), A: ir.Const(1), B: ir.Const(200), Reg: -1},
			{Op: ir.OpShr, Dst: ir.Temp(1), A: ir.Const(-8), B: ir.Const(1), Reg: -1},
			{Op: ir.OpShr, Dst: ir.Temp(2), A: ir.Const(5), B: ir.Const(-1), Reg: -1},
		}}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if obs := checkAgree(t, &c.st, nil, make([]int64, 3), nil); !reflect.DeepEqual(obs, c.obs) {
				t.Errorf("observed %v, want %v", obs, c.obs)
			}
		})
	}
}

// TestDifferentialAllOps sweeps every opcode with a mix of operand kinds
// and predicates through both executors.
func TestDifferentialAllOps(t *testing.T) {
	binary := []ir.Op{
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd,
		ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe,
		ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpLAnd, ir.OpLOr,
		ir.OpMax, ir.OpMin,
	}
	var instrs []ir.Instr
	for i, op := range binary {
		in := ir.Instr{Op: op, Dst: ir.Temp(i % 4), A: ir.Field(0), B: ir.Const(int64(i - 3)), Reg: -1}
		if i%3 == 1 {
			in.Pred = ir.Temp(3)
		}
		if i%3 == 2 {
			in.Pred, in.PredNeg = ir.Field(1), true
		}
		instrs = append(instrs, in)
	}
	instrs = append(instrs,
		ir.Instr{Op: ir.OpNop, Reg: -1},
		ir.Instr{Op: ir.OpMov, Dst: ir.Field(1), A: ir.Temp(2), Reg: -1},
		ir.Instr{Op: ir.OpMov, Dst: ir.None(), A: ir.Temp(2), Reg: -1}, // dropped store
		ir.Instr{Op: ir.OpMov, Dst: ir.Temp(0), A: ir.None(), Reg: -1}, // None loads 0
		ir.Instr{Op: ir.OpNot, Dst: ir.Temp(1), A: ir.Temp(0), Reg: -1},
		ir.Instr{Op: ir.OpNeg, Dst: ir.Temp(2), A: ir.Field(0), Reg: -1},
		ir.Instr{Op: ir.OpSelect, Dst: ir.Temp(0), A: ir.Temp(1), B: ir.Field(0), C: ir.Const(20), Reg: -1},
		ir.Instr{Op: ir.OpHash2, Dst: ir.Temp(1), A: ir.Field(0), B: ir.Const(7), Reg: -1},
		ir.Instr{Op: ir.OpHash3, Dst: ir.Temp(2), A: ir.Temp(1), B: ir.Field(1), C: ir.Const(9), Reg: -1},
		ir.Instr{Op: ir.OpLookup, Dst: ir.Temp(3), A: ir.Temp(2), B: ir.Const(1), C: ir.Const(0), Reg: 0},
		ir.Instr{Op: ir.OpWrReg, Reg: 2, Idx: ir.Temp(3), A: ir.Temp(1)},
		ir.Instr{Op: ir.OpRdReg, Dst: ir.Temp(0), Reg: 2, Idx: ir.Temp(3)},
		ir.Instr{Op: ir.OpWrReg, Reg: 2, Idx: ir.Temp(3), A: ir.Temp(0), Pred: ir.Temp(1)},
		ir.Instr{Op: ir.OpRdReg, Dst: ir.Temp(1), Reg: 2, Idx: ir.Const(0), Pred: ir.Temp(2), PredNeg: true},
	)
	st := &ir.Stage{Instrs: instrs}
	checkAgree(t, st, []int64{6, 0}, make([]int64, 4), regSeed{{2, 0}: 11})
	checkAgree(t, st, []int64{-3, 1}, []int64{1, 2, 3, 4}, nil)
}

// TestDifferentialQuick cross-checks randomized stages (randStage) between
// the two executors under testing/quick.
func TestDifferentialQuick(t *testing.T) {
	prop := func(progSeed int64, f0, f1, f2 int64) bool {
		st := randStage(rand.New(rand.NewSource(progSeed)))
		ie, ve, is, vs, iobs, vobs := runBoth(t, st, []int64{f0, f1, f2}, make([]int64, 4), nil)
		return sameVals(ie.Fields, ve.Fields) && sameVals(ie.Temps, ve.Temps) &&
			reflect.DeepEqual(is.Snapshot(), vs.Snapshot()) && reflect.DeepEqual(iobs, vobs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randStage draws a stage of 1–12 instructions over 3 fields, 4 temps and
// registers 0 and 1: random opcodes, operand kinds and predicates, and
// register ops with data-dependent indices.
func randStage(r *rand.Rand) *ir.Stage {
	ops := []ir.Op{
		ir.OpMov, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpXor, ir.OpShl, ir.OpShr, ir.OpLt, ir.OpLAnd, ir.OpNot,
		ir.OpNeg, ir.OpSelect, ir.OpMax, ir.OpMin, ir.OpHash2,
		ir.OpHash3, ir.OpRdReg, ir.OpWrReg,
	}
	randOperand := func() ir.Operand {
		switch r.Intn(4) {
		case 0:
			return ir.Const(int64(r.Intn(41) - 20))
		case 1:
			return ir.Field(r.Intn(3))
		case 2:
			return ir.Temp(r.Intn(4))
		default:
			return ir.None()
		}
	}
	n := 1 + r.Intn(12)
	st := &ir.Stage{}
	for i := 0; i < n; i++ {
		in := ir.Instr{Op: ops[r.Intn(len(ops))], Reg: -1}
		in.Dst = ir.Temp(r.Intn(4))
		in.A = randOperand()
		in.B = randOperand()
		in.C = randOperand()
		if in.Op == ir.OpRdReg || in.Op == ir.OpWrReg {
			in.Reg = r.Intn(2)
			in.Idx = randOperand()
		}
		if r.Intn(3) == 0 {
			in.Pred = randOperand()
			in.PredNeg = r.Intn(2) == 0
		}
		st.Instrs = append(st.Instrs, in)
	}
	return st
}

// TestStableSitesPredictAccesses holds Stable to its contract on random
// stages: on a stable stage, the sites that hold on the entry frame, read at
// the raw indices the entry frame holds, name exactly the (register, index)
// pairs the observed execution then accesses, in first-access order.
func TestStableSitesPredictAccesses(t *testing.T) {
	distinct := func(list []access, a access) []access {
		for _, b := range list {
			if b == a {
				return list
			}
		}
		return append(list, a)
	}
	exercised := 0
	prop := func(progSeed int64, f0, f1, f2 int64) bool {
		st := randStage(rand.New(rand.NewSource(progSeed)))
		prog, sp := compileStageT(t, st, 3, 4)
		if !sp.Stable() {
			return true
		}
		e := ir.NewEnv(prog)
		copy(e.Fields, []int64{f0, f1, f2})
		if err := sp.Fit(e); err != nil {
			t.Fatal(err)
		}
		var want, got []access
		for _, s := range sp.Sites() {
			if s.Held(e.Frame) {
				want = distinct(want, access{s.Reg, e.Frame[s.Idx], false})
			}
		}
		if err := new(VM).ExecStageObserved(&sp, e, ir.NewRegFile(prog), func(reg int, idx int64, write bool) {
			got = distinct(got, access{reg, idx, false})
		}); err != nil {
			t.Fatal(err)
		}
		if len(want) > 0 {
			exercised++
		}
		return reflect.DeepEqual(want, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if exercised < 100 {
		t.Fatalf("only %d of 1000 random stages were stable with an access", exercised)
	}
	t.Logf("%d of 1000 random stages were stable with an access", exercised)
}

// TestFusedRMW pins the read-modify-write superinstruction: which triples
// fuse, which must not, and the differential behaviour of both variants —
// shared predicate (including negated) and partial (ALU unpredicated
// between gated accesses, the shape the compiler emits for guarded state
// updates) — plus the aliasing case where the ALU's B source is t1 itself.
// checkAgree runs every case through the interpreter and the VM,
// observations included.
func TestFusedRMW(t *testing.T) {
	rmw := func(pred, aluPred ir.Operand, neg bool, b ir.Operand, rdDst ir.Operand) *ir.Stage {
		return &ir.Stage{Instrs: []ir.Instr{
			{Op: ir.OpRdReg, Dst: rdDst, Reg: 0, Idx: ir.Temp(0), Pred: pred, PredNeg: neg},
			{Op: ir.OpAdd, Dst: ir.Temp(2), A: rdDst, B: b, Pred: aluPred, PredNeg: neg && !aluPred.IsNone(), Reg: -1},
			{Op: ir.OpWrReg, Reg: 0, Idx: ir.Temp(0), A: ir.Temp(2), Pred: pred, PredNeg: neg},
		}}
	}
	fused := func(st *ir.Stage) int {
		_, sp := compileStageT(t, st, 1, 4)
		n := 0
		for i := range sp.micro {
			if ir.Op(sp.micro[i].op) == opFusedRMW {
				n++
			}
		}
		return n
	}
	cases := []struct {
		name     string
		st       *ir.Stage
		wantFuse int
	}{
		{"unpredicated", rmw(ir.None(), ir.None(), false, ir.Const(1), ir.Temp(1)), 1},
		{"shared predicate", rmw(ir.Field(0), ir.Field(0), false, ir.Const(1), ir.Temp(1)), 1},
		{"shared negated", rmw(ir.Field(0), ir.Field(0), true, ir.Const(1), ir.Temp(1)), 1},
		{"partial (alu unpredicated)", rmw(ir.Field(0), ir.None(), false, ir.Const(1), ir.Temp(1)), 1},
		{"partial negated", rmw(ir.Field(0), ir.None(), true, ir.Const(1), ir.Temp(1)), 1},
		{"alu B aliases t1", rmw(ir.None(), ir.None(), false, ir.Temp(1), ir.Temp(1)), 1},
		// t1 landing in the index slot would clobber the write's index:
		// must stay unfused (and behave like the interpreter regardless).
		{"idx clobbered by t1", rmw(ir.None(), ir.None(), false, ir.Const(1), ir.Temp(0)), 0},
		// The write under a different predicate is not a fusable triple.
		{"mismatched predicates", &ir.Stage{Instrs: []ir.Instr{
			{Op: ir.OpRdReg, Dst: ir.Temp(1), Reg: 0, Idx: ir.Temp(0), Pred: ir.Field(0)},
			{Op: ir.OpAdd, Dst: ir.Temp(2), A: ir.Temp(1), B: ir.Const(1), Reg: -1},
			{Op: ir.OpWrReg, Reg: 0, Idx: ir.Temp(0), A: ir.Temp(2), Pred: ir.Temp(3)},
		}}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := fused(c.st); got != c.wantFuse {
				t.Fatalf("fused %d RMW triples, want %d", got, c.wantFuse)
			}
			for _, f0 := range []int64{0, 1} { // predicate false and true
				checkAgree(t, c.st, []int64{f0}, []int64{3, -1, -1, 1}, regSeed{{0, 3}: 10})
			}
		})
	}
}

// TestConstPoolDeduplicated: repeated constants share one pool slot.
func TestConstPoolDeduplicated(t *testing.T) {
	st := &ir.Stage{Instrs: []ir.Instr{
		{Op: ir.OpAdd, Dst: ir.Temp(0), A: ir.Const(42), B: ir.Const(42), Reg: -1},
		{Op: ir.OpMov, Dst: ir.Temp(1), A: ir.Const(42), Reg: -1},
		{Op: ir.OpMov, Dst: ir.Temp(1), A: ir.Const(7), Reg: -1},
		{Op: ir.OpMov, Dst: ir.Temp(1), A: ir.None(), Reg: -1}, // None reads the zero slot, not the pool
		{Op: ir.OpMov, Dst: ir.Temp(1), A: ir.Const(0), Reg: -1},
	}}
	_, sp := compileStageT(t, st, 0, 2)
	want := []int64{42, 7, 0} // first-use order, each value once
	if !reflect.DeepEqual(sp.Consts, want) {
		t.Errorf("pool = %v, want %v", sp.Consts, want)
	}
	seen := map[int64]bool{}
	for _, v := range sp.Consts {
		if seen[v] {
			t.Errorf("pool has duplicate value %d", v)
		}
		seen[v] = true
	}
}

// TestEmptyStage: the zero StageProgram executes as a no-op.
func TestEmptyStage(t *testing.T) {
	env := &ir.Env{Fields: []int64{1}, Temps: []int64{2}}
	if err := new(VM).ExecStage(&StageProgram{}, env, ir.NewRegFile(testProgram(1, 1))); err != nil {
		t.Fatal(err)
	}
	if env.Fields[0] != 1 || env.Temps[0] != 2 {
		t.Error("empty stage modified the environment")
	}
}

// TestObservationGating: a predicated-off register access is not observed,
// a predicated-on one is observed exactly once with the raw index — on
// both executors.
func TestObservationGating(t *testing.T) {
	st := &ir.Stage{Instrs: []ir.Instr{
		{Op: ir.OpWrReg, Reg: 0, Idx: ir.Const(-9), A: ir.Const(1), Pred: ir.Const(0)},
		{Op: ir.OpWrReg, Reg: 0, Idx: ir.Const(-9), A: ir.Const(1), Pred: ir.Const(1)},
		{Op: ir.OpRdReg, Dst: ir.Temp(0), Reg: 0, Idx: ir.Const(5), Pred: ir.Const(0), PredNeg: true},
	}}
	_, _, _, _, iobs, vobs := runBoth(t, st, nil, make([]int64, 1), nil)
	want := []access{{0, -9, true}, {0, 5, false}}
	if !reflect.DeepEqual(iobs, want) {
		t.Errorf("interpreter observations = %v, want %v", iobs, want)
	}
	if !reflect.DeepEqual(vobs, want) {
		t.Errorf("VM observations = %v, want %v", vobs, want)
	}
}

// TestFit runs a two-stage program on every env shape the engines hand the
// VM: fresh ones the first stage call fits (seeding both stages' pools at
// once) and already-fitted ones it must leave alone. Each must end with
// the program's frame under its Fields and Temps and agree with the
// interpreter on fields, temps, store and observations; field values
// written before the first call survive the fit.
func TestFit(t *testing.T) {
	p := testProgram(3, 3,
		ir.Stage{Instrs: []ir.Instr{
			{Op: ir.OpAdd, Dst: ir.Temp(0), A: ir.Field(0), B: ir.Const(40), Reg: -1},
			{Op: ir.OpRdReg, Dst: ir.Temp(1), Reg: 0, Idx: ir.Field(1)},
			{Op: ir.OpAdd, Dst: ir.Temp(2), A: ir.Temp(1), B: ir.Temp(0), Reg: -1},
			{Op: ir.OpWrReg, Reg: 0, Idx: ir.Field(1), A: ir.Temp(2)},
		}},
		ir.Stage{Instrs: []ir.Instr{
			{Op: ir.OpMul, Dst: ir.Field(2), A: ir.Temp(2), B: ir.Const(-3), Reg: -1},
			{Op: ir.OpXor, Dst: ir.Temp(0), A: ir.Field(2), B: ir.Const(99), Reg: -1, Pred: ir.Field(0)},
		}},
	)
	bp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	fields := []int64{2, 5, 0}
	seed := regSeed{{0, 5}: 7}
	run := func(e *ir.Env, s *ir.RegFile, observe func(reg int, idx int64, write bool)) {
		for si := range bp.Stages {
			if err := new(VM).ExecStageObserved(&bp.Stages[si], e, s, observe); err != nil {
				t.Fatalf("stage %d: %v", si, err)
			}
		}
	}
	fitted := func() *ir.Env {
		e := ir.NewEnv(p)
		run(e, ir.NewRegFile(p), nil)
		e.ResetFor(fields)
		return e
	}
	frameLen := bp.Stages[0].frameLen
	cases := []struct {
		name   string
		env    func() *ir.Env
		fitted bool
	}{
		{"NewEnv, no headroom", func() *ir.Env {
			e := ir.NewEnv(p)
			copy(e.Fields, fields)
			return e
		}, false},
		{"hand-built, no frame", func() *ir.Env {
			return &ir.Env{Fields: append([]int64(nil), fields...), Temps: make([]int64, 3)}
		}, false},
		{"Clone of a fitted env", func() *ir.Env { return fitted().Clone() }, true},
		{"fitted env after ResetFor", fitted, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ve := c.env()
			if got := len(ve.Frame) == frameLen; got != c.fitted {
				t.Fatalf("frame of %d slots before the first call, want fitted=%v", len(ve.Frame), c.fitted)
			}
			ie := &ir.Env{Fields: append([]int64(nil), fields...), Temps: make([]int64, 3)}
			is, vs := newStore(p, seed), newStore(p, seed)
			var iobs, vobs []access
			for si := range p.Stages {
				ir.ExecStageObserved(&p.Stages[si], ie, is, func(reg int, idx int64, write bool) {
					iobs = append(iobs, access{reg, idx, write})
				})
			}
			run(ve, vs, func(reg int, idx int64, write bool) {
				vobs = append(vobs, access{reg, idx, write})
			})
			if len(ve.Frame) != frameLen || &ve.Fields[0] != &ve.Frame[0] || &ve.Temps[0] != &ve.Frame[3] {
				t.Fatalf("env not on a fitted frame: %d slots, want %d", len(ve.Frame), frameLen)
			}
			if !sameVals(ie.Fields, ve.Fields) || !sameVals(ie.Temps, ve.Temps) ||
				!reflect.DeepEqual(is.Snapshot(), vs.Snapshot()) || !reflect.DeepEqual(iobs, vobs) {
				t.Errorf("diverged from the interpreter:\ninterp fields=%v temps=%v regs=%v obs=%v\nvm     fields=%v temps=%v regs=%v obs=%v",
					ie.Fields, ie.Temps, is.Snapshot(), iobs, ve.Fields, ve.Temps, vs.Snapshot(), vobs)
			}
		})
	}
}

// TestFitRejectsMisshapenEnv: an env whose field or temp count does not
// match the program is an error, not a panic or a silent re-shape.
func TestFitRejectsMisshapenEnv(t *testing.T) {
	st := &ir.Stage{Instrs: []ir.Instr{{Op: ir.OpMov, Dst: ir.Temp(0), A: ir.Field(1), Reg: -1}}}
	p, sp := compileStageT(t, st, 2, 1)
	for _, e := range []*ir.Env{
		{Fields: make([]int64, 1), Temps: make([]int64, 1)},
		{Fields: make([]int64, 2)},
	} {
		err := new(VM).ExecStage(&sp, e, ir.NewRegFile(p))
		if err == nil || !strings.Contains(err.Error(), "env has") {
			t.Errorf("%d fields, %d temps: err = %v, want a shape mismatch", len(e.Fields), len(e.Temps), err)
		}
	}
}

// TestCompileLimits: micro-op operands are uint16, so an id or frame past
// that width is a compile error rather than a silently truncated operand.
func TestCompileLimits(t *testing.T) {
	big := math.MaxUint16 + 1
	stage := func(in ir.Instr) []ir.Stage { return []ir.Stage{{Instrs: []ir.Instr{in}}} }
	cases := []struct {
		name string
		prog *ir.Program
		want string // "" = must compile
	}{
		{"register id at limit", &ir.Program{NumTemps: 1, Stages: stage(
			ir.Instr{Op: ir.OpRdReg, Dst: ir.Temp(0), Reg: big - 1, Idx: ir.Const(0)})}, ""},
		{"register id past limit", &ir.Program{NumTemps: 1, Stages: stage(
			ir.Instr{Op: ir.OpRdReg, Dst: ir.Temp(0), Reg: big, Idx: ir.Const(0)})}, "register or table id 65536"},
		{"write register id past limit", &ir.Program{Stages: stage(
			ir.Instr{Op: ir.OpWrReg, Reg: big, Idx: ir.Const(0), A: ir.Const(1)})}, "register or table id 65536"},
		{"table id past limit", &ir.Program{NumTemps: 1, Stages: stage(
			ir.Instr{Op: ir.OpLookup, Dst: ir.Temp(0), Reg: big, A: ir.Const(1)})}, "register or table id 65536"},
		{"negative register id", &ir.Program{NumTemps: 1, Stages: stage(
			ir.Instr{Op: ir.OpRdReg, Dst: ir.Temp(0), Reg: -1, Idx: ir.Const(0)})}, "register or table id -1"},
		{"field count past limit", &ir.Program{Fields: make([]string, big), Stages: stage(
			ir.Instr{Op: ir.OpMov, Dst: ir.Field(0), A: ir.Field(big - 1), Reg: -1})}, "exceeds uint16 addressing"},
		{"field id outside program", &ir.Program{Fields: make([]string, 2), Stages: stage(
			ir.Instr{Op: ir.OpMov, Dst: ir.Field(0), A: ir.Field(big + 2), Reg: -1})}, "out of range"},
		{"temp id outside program", &ir.Program{NumTemps: 1, Stages: stage(
			ir.Instr{Op: ir.OpMov, Dst: ir.Temp(1), A: ir.Const(1), Reg: -1})}, "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.prog)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("Compile: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("Compile err = %v, want %q", err, c.want)
			}
		})
	}
}
