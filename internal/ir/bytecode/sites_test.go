package bytecode_test

import (
	"reflect"
	"strings"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

// TestAppStageStability pins which of the bundled applications' state
// stages are stable: flowlet's and the sequencer's read their indices and
// predicates from the resolution stages, CONGA's and WFQ's compute a
// predicate inside the stage.
func TestAppStageStability(t *testing.T) {
	want := map[string]map[int]bool{
		"flowlet":   {3: true, 6: true},
		"sequencer": {2: true},
		"conga":     {2: false},
		"wfq":       {2: false},
	}
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			bp := bytecode.MustCompile(app.MustCompile(compiler.TargetMP5))
			stages, ok := want[app.Name]
			if !ok {
				t.Fatalf("no expectation for %s", app.Name)
			}
			for si := range bp.Stages {
				sp := &bp.Stages[si]
				stable, stateful := stages[si]
				if stateful != sp.Stateful {
					t.Fatalf("stage %d: stateful=%v, want %v", si, sp.Stateful, stateful)
				}
				if !stateful {
					if len(sp.Sites()) != 0 || !sp.Stable() {
						t.Errorf("stateless stage %d: %d sites, stable=%v", si, len(sp.Sites()), sp.Stable())
					}
					continue
				}
				if len(sp.Sites()) == 0 {
					t.Errorf("state stage %d has no sites", si)
				}
				if sp.Stable() != stable {
					t.Errorf("stage %d: stable=%v, want %v", si, sp.Stable(), stable)
				}
			}
		})
	}
}

// TestSites pins the compiled access sites of hand-built stages: their
// register, index and predicate offsets (frame layout: fields, temps, the
// discard and zero slots, then the constant pool) and negation, in
// micro-op order, and the stage's stability.
func TestSites(t *testing.T) {
	const nf, nt = 2, 4
	f := func(i int) int { return i }
	tmp := func(i int) int { return nf + i }
	pool := func(i int) int { return nf + nt + 2 + i }
	cases := []struct {
		name   string
		instrs []ir.Instr
		fused  bool // the stage must compile to a fused read-modify-write
		sites  []bytecode.Site
		stable bool
	}{
		{"index temp written earlier", []ir.Instr{
			{Op: ir.OpAdd, Dst: ir.Temp(0), A: ir.Field(0), B: ir.Const(1), Reg: -1},
			{Op: ir.OpRdReg, Dst: ir.Temp(1), Reg: 0, Idx: ir.Temp(0)},
		}, false, []bytecode.Site{{Reg: 0, Idx: tmp(0), Pred: -1}}, false},
		{"predicate written earlier", []ir.Instr{
			{Op: ir.OpGt, Dst: ir.Temp(0), A: ir.Field(0), B: ir.Const(1), Reg: -1},
			{Op: ir.OpWrReg, Reg: 1, Idx: ir.Field(1), A: ir.Const(7), Pred: ir.Temp(0), PredNeg: true},
		}, false, []bytecode.Site{{Reg: 1, Idx: f(1), Pred: tmp(0), Neg: true}}, false},
		{"fused t1 feeds a later index", []ir.Instr{
			{Op: ir.OpRdReg, Dst: ir.Temp(1), Reg: 0, Idx: ir.Field(0)},
			{Op: ir.OpAdd, Dst: ir.Temp(2), A: ir.Temp(1), B: ir.Const(1), Reg: -1},
			{Op: ir.OpWrReg, Reg: 0, Idx: ir.Field(0), A: ir.Temp(2)},
			{Op: ir.OpRdReg, Dst: ir.Temp(3), Reg: 1, Idx: ir.Temp(1)},
		}, true, []bytecode.Site{{Reg: 0, Idx: f(0), Pred: -1}, {Reg: 1, Idx: tmp(1), Pred: -1}}, false},
		{"constant index", []ir.Instr{
			{Op: ir.OpAdd, Dst: ir.Temp(0), A: ir.Field(0), B: ir.Const(3), Reg: -1},
			{Op: ir.OpRdReg, Dst: ir.Temp(1), Reg: 2, Idx: ir.Const(5)},
		}, false, []bytecode.Site{{Reg: 2, Idx: pool(1), Pred: -1}}, true},
		{"unpredicated access", []ir.Instr{
			{Op: ir.OpWrReg, Reg: 0, Idx: ir.Field(1), A: ir.Field(0)},
			{Op: ir.OpRdReg, Dst: ir.Field(1), Reg: 0, Idx: ir.Field(0)},
		}, false, []bytecode.Site{{Reg: 0, Idx: f(1), Pred: -1}, {Reg: 0, Idx: f(0), Pred: -1}}, true},
		{"partial fused read-modify-write", []ir.Instr{
			{Op: ir.OpRdReg, Dst: ir.Temp(1), Reg: 0, Idx: ir.Temp(0), Pred: ir.Field(1), PredNeg: true},
			{Op: ir.OpAdd, Dst: ir.Temp(2), A: ir.Temp(1), B: ir.Const(1), Reg: -1},
			{Op: ir.OpWrReg, Reg: 0, Idx: ir.Temp(0), A: ir.Temp(2), Pred: ir.Field(1), PredNeg: true},
			{Op: ir.OpRdReg, Dst: ir.Temp(3), Reg: 0, Idx: ir.Temp(0), Pred: ir.Field(0)},
		}, true, []bytecode.Site{{Reg: 0, Idx: tmp(0), Pred: f(1), Neg: true}, {Reg: 0, Idx: tmp(0), Pred: f(0)}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &ir.Program{Fields: make([]string, nf), NumTemps: nt, Stages: []ir.Stage{{Instrs: c.instrs}}}
			bp, err := bytecode.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			sp := &bp.Stages[0]
			if got := strings.Contains(bytecode.DisasmStage(sp), "rmw {"); got != c.fused {
				t.Fatalf("fused=%v, want %v:\n%s", got, c.fused, bytecode.DisasmStage(sp))
			}
			if !reflect.DeepEqual(sp.Sites(), c.sites) {
				t.Errorf("sites %+v, want %+v", sp.Sites(), c.sites)
			}
			if sp.Stable() != c.stable {
				t.Errorf("stable=%v, want %v", sp.Stable(), c.stable)
			}
		})
	}
}

// TestSiteHeld: an unpredicated site always executes; a predicated one
// when its predicate slot's truth differs from Neg.
func TestSiteHeld(t *testing.T) {
	frame := []int64{0, 9}
	for _, c := range []struct {
		s    bytecode.Site
		want bool
	}{
		{bytecode.Site{Pred: -1}, true},
		{bytecode.Site{Pred: 0}, false},
		{bytecode.Site{Pred: 1}, true},
		{bytecode.Site{Pred: 0, Neg: true}, true},
		{bytecode.Site{Pred: 1, Neg: true}, false},
	} {
		if got := c.s.Held(frame); got != c.want {
			t.Errorf("%+v.Held = %v, want %v", c.s, got, c.want)
		}
	}
}
