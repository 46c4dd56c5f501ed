package dataplane

import (
	"reflect"
	"testing"
	"time"

	"mp5/internal/core"
	"mp5/internal/ir"
)

// TestResolvePlan pins the plan newHandle compiles from a program's access
// sites, on a hand-built program with the shapes the compiler's own output
// does not cover: two accesses to one register in a stage (only the second
// needs the duplicate check), constant predicates (one that holds is
// folded away, one that fails drops its access), and an unresolvable
// predicate (the access is unconditional). Resolving packets through the
// plan must then collapse same-slot references to one ticket and keep
// distinct ones apart.
func TestResolvePlan(t *testing.T) {
	f0, f1 := ir.Field(0), ir.Field(1)
	prog := &ir.Program{
		Name:   "plan",
		Fields: []string{"a", "b"},
		Regs: []ir.RegInfo{
			{Name: "r0", ID: 0, Size: 8, Stage: 1, Sharded: true},
			{Name: "r1", ID: 1, Size: 4, Stage: 2},
			{Name: "r2", ID: 2, Size: 4, Stage: 2},
		},
		Stages: []ir.Stage{
			{},
			{Instrs: []ir.Instr{
				{Op: ir.OpWrReg, Reg: 0, Idx: f0, A: ir.Const(1)},
				{Op: ir.OpWrReg, Reg: 0, Idx: f1, A: ir.Const(2), Pred: f0},
			}},
			{Instrs: []ir.Instr{
				{Op: ir.OpWrReg, Reg: 1, Idx: ir.Const(0), A: ir.Const(3)},
				{Op: ir.OpWrReg, Reg: 2, Idx: ir.Const(0), A: ir.Const(4), Pred: f1, PredNeg: true},
			}},
		},
		Accesses: []ir.Access{
			{Reg: 0, Stage: 1, Idx: f0, PredResolvable: true},
			{Reg: 0, Stage: 1, Idx: f1, Pred: f0, PredResolvable: true},
			{Reg: 0, Stage: 1, Idx: ir.Const(3), Pred: ir.Const(0), PredResolvable: true},
			{Reg: 1, Stage: 2, Pred: ir.Const(1), PredResolvable: true},
			{Reg: 2, Stage: 2, Pred: f1, PredNeg: true},
		},
		ResolutionStages: 1,
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	e := New(prog, Config{Workers: 1}) // never started: resolve runs here
	h := e.def
	want := []resolveStep{
		{reg: 0, stage: 1, first: true, idx: f0},
		{reg: 0, stage: 1, dup: true, pred: f0, idx: f1},
		{reg: 1, stage: 2, first: true},
		{reg: 2, stage: 2},
	}
	if len(h.plan) != len(want) {
		t.Fatalf("plan has %d steps, want %d: %+v", len(h.plan), len(want), h.plan)
	}
	for i, w := range want {
		got := h.plan[i]
		if got.sh != &h.shard[w.reg] {
			t.Errorf("step %d: shard of the wrong register", i)
		}
		got.sh = nil
		if got != w {
			t.Errorf("step %d: %+v, want %+v", i, got, w)
		}
	}
	for _, c := range []struct {
		a, b  int64
		slots []int // slot indices of the stage-1 visit's tickets
	}{
		{5, 5, []int{5}},    // both r0 accesses name slot 5: one ticket
		{5, 6, []int{5, 6}}, // distinct slots: two tickets
		{0, 6, []int{0}},    // the predicated access resolves away
	} {
		p := e.prepare(h, 0, &core.Arrival{Fields: []int64{c.a, c.b}}, time.Now())
		if len(p.visits) != 2 || p.visits[0].stage != 1 || p.visits[1].stage != 2 {
			t.Fatalf("a=%d b=%d: visits %+v, want stages 1 and 2", c.a, c.b, p.visits)
		}
		var got []int
		for _, ref := range p.visits[0].slots {
			for i := range h.shard[0].slots {
				if ref.st == &h.shard[0].slots[i] {
					got = append(got, i)
				}
			}
		}
		if !reflect.DeepEqual(got, c.slots) {
			t.Errorf("a=%d b=%d: stage-1 tickets on %v, want %v", c.a, c.b, got, c.slots)
		}
		if n := len(p.visits[1].slots); n != 2 {
			t.Errorf("a=%d b=%d: stage-2 visit holds %d tickets, want r1's and r2's", c.a, c.b, n)
		}
	}
}
