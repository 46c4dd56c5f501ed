package dataplane

import (
	"fmt"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/ir"
	"mp5/internal/workload"
)

// pathCount tallies visit executions per (stage, check path). Install hook
// as testExecPath; observed forces every visit through the observer.
type pathCount struct {
	observed bool
	mu       sync.Mutex
	n        map[[2]int]int // key: stage, 1 for up front / 0 for observed
}

func (c *pathCount) hook(stage int, upFront bool) bool {
	upFront = upFront && !c.observed
	k := [2]int{stage, 0}
	if upFront {
		k[1] = 1
	}
	c.mu.Lock()
	if c.n == nil {
		c.n = map[[2]int]int{}
	}
	c.n[k]++
	c.mu.Unlock()
	return upFront
}

func (c *pathCount) ran(stage int, upFront bool) int {
	k := [2]int{stage, 0}
	if upFront {
		k[1] = 1
	}
	return c.n[k]
}

// pathCase is one program and trace the two-path tests run.
type pathCase struct {
	name     string
	prog     *ir.Program
	arrivals []core.Arrival
}

// checkPathPrograms are the programs the two-path tests run: the 8x8
// skewed synthetic (every stage stable), the four applications, whose
// CONGA and WFQ state stages compute a predicate inside the stage and so
// are unstable, and arrayPathProgram.
func checkPathPrograms(t *testing.T) []pathCase {
	t.Helper()
	synth, err := apps.Synthetic(8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	out := []pathCase{{"synthetic-8x8", synth, workload.Synthetic(synth, workload.Spec{
		Packets: 3000, Pipelines: 4, Seed: 29, Pattern: workload.Skewed,
	}, 8, 8)}}
	for _, app := range apps.All() {
		prog := app.MP5()
		out = append(out, pathCase{app.Name, prog, workload.RandomFields(prog, workload.Spec{Packets: 2000, Pipelines: 4, Seed: 11})})
	}
	prog := arrayPathProgram(t)
	arrivals := workload.RandomFields(prog, workload.Spec{Packets: 2000, Pipelines: 4, Seed: 13})
	for i := range arrivals {
		arrivals[i].Fields[2] %= 3 // c: the predicate is off a third of the time
	}
	return append(out, pathCase{"array-two-indices", prog, arrivals})
}

// arrayPathProgram is a hand-built program with the shapes the compiled
// ones lack: stage 1 reads an unsharded array at two indices (a and b,
// distinct for most packets) and writes one back, plus a write predicated
// on c; stage 2's only access is predicated on c and unresolvable, so its
// ticket is issued regardless and is a wasted visit when c is 0.
func arrayPathProgram(t *testing.T) *ir.Program {
	t.Helper()
	a, b, c := ir.Field(0), ir.Field(1), ir.Field(2)
	t0, t1 := ir.Temp(0), ir.Temp(1)
	prog := &ir.Program{
		Name:     "array-two-indices",
		Fields:   []string{"a", "b", "c"},
		NumTemps: 2,
		Regs: []ir.RegInfo{
			{Name: "r0", ID: 0, Size: 4, Stage: 1},
			{Name: "r1", ID: 1, Size: 4, Stage: 2},
		},
		Stages: []ir.Stage{
			{},
			{Instrs: []ir.Instr{
				{Op: ir.OpRdReg, Dst: t0, Reg: 0, Idx: a},
				{Op: ir.OpRdReg, Dst: t1, Reg: 0, Idx: b},
				{Op: ir.OpAdd, Dst: t0, A: t0, B: t1},
				{Op: ir.OpAdd, Dst: t0, A: t0, B: ir.Const(1)},
				{Op: ir.OpWrReg, Reg: 0, Idx: a, A: t0},
				{Op: ir.OpWrReg, Reg: 0, Idx: c, A: b, Pred: c},
				{Op: ir.OpMov, Dst: b, A: t0},
			}},
			{Instrs: []ir.Instr{
				{Op: ir.OpWrReg, Reg: 1, Idx: a, A: b, Pred: c},
			}},
		},
		Accesses: []ir.Access{
			{Reg: 0, Stage: 1},
			{Reg: 0, Stage: 1},
			{Reg: 0, Stage: 1},
			{Reg: 0, Stage: 1, Pred: c, PredResolvable: true},
			{Reg: 1, Stage: 2, Pred: c},
		},
		ResolutionStages: 1,
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCheckPathsAgree pins the two ticket-check paths to one outcome: every
// program runs once with each stage's own path (stable stages checked up
// front) and once with every visit forced through the access observer, at
// one driver and at two. Both runs must pass the C1 verdict against the
// single-pipeline reference (runCheckedEngine, which holds their per-slot
// access orders to one sequence), match each other on wasted visits,
// outputs and final registers, and each path must really have run where the
// stage's stability says it does.
func TestCheckPathsAgree(t *testing.T) {
	for _, c := range checkPathPrograms(t) {
		for _, procs := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/procs%d", c.name, procs), func(t *testing.T) {
				withProcs(procs, func() {
					own, forced := &pathCount{}, &pathCount{observed: true}
					cfg := Config{Workers: 2}
					e1, r1 := runCheckedEngine(t, c.prog, c.arrivals, cfg, func(e *Engine) { e.testExecPath = own.hook })
					e2, r2 := runCheckedEngine(t, c.prog, c.arrivals, cfg, func(e *Engine) { e.testExecPath = forced.hook })
					if r1.Wasted != r2.Wasted {
						t.Errorf("wasted visits: %d up front, %d observed", r1.Wasted, r2.Wasted)
					}
					if !reflect.DeepEqual(e1.Outputs(), e2.Outputs()) {
						t.Error("outputs differ between the check paths")
					}
					if !reflect.DeepEqual(e1.FinalRegs(), e2.FinalRegs()) {
						t.Error("final registers differ between the check paths")
					}
					bc := e1.def.bc
					for si := range bc.Stages {
						if !bc.Stages[si].Stateful {
							continue
						}
						up := bc.Stages[si].Stable()
						if own.ran(si, up) == 0 || own.ran(si, !up) != 0 {
							t.Errorf("stage %d (stable=%v): %d visits up front, %d observed",
								si, up, own.ran(si, true), own.ran(si, false))
						}
						if forced.ran(si, true) != 0 || forced.ran(si, false) == 0 {
							t.Errorf("stage %d forced observed: %d visits up front, %d observed",
								si, forced.ran(si, true), forced.ran(si, false))
						}
					}
					switch c.name {
					case "flowlet":
						if own.ran(3, true) == 0 || own.ran(6, true) == 0 {
							t.Error("flowlet's state stages did not run up front")
						}
					case "conga":
						if own.ran(2, false) == 0 {
							t.Error("conga's state stage did not run observed")
						}
					}
				})
			})
		}
	}
}

// missingTicket matches the panic a visit raises on a register access none
// of its tickets covers.
var missingTicket = regexp.MustCompile(`^dataplane: packet \d+ accessed r\d+\[\d+\] in stage \d+ without a ticket$`)

// TestMissingTicketPanics strips the tickets off one visit of a stable
// stage (flowlet stage 3, checked up front) and of an unstable one (CONGA
// stage 2, observed) and runs it: both must panic with the missing-ticket
// message, and the up-front check must fire before any register word of
// any pipeline changes.
func TestMissingTicketPanics(t *testing.T) {
	for _, c := range []struct {
		app     string
		stage   int
		upFront bool
	}{
		{"flowlet", 3, true},
		{"conga", 2, false},
	} {
		t.Run(c.app, func(t *testing.T) {
			var app *apps.App
			for _, a := range apps.All() {
				if a.Name == c.app {
					app = a
				}
			}
			prog := app.MP5()
			e := New(prog, Config{Workers: 2}) // never started: this goroutine is every role
			var paths pathCount
			e.testExecPath = paths.hook
			h := e.def
			arrivals := workload.RandomFields(prog, workload.Spec{Packets: 64, Pipelines: 4, Seed: 5})
			var p *packet
			var v *visit
			for i := range arrivals {
				p = e.prepare(h, int64(i), &arrivals[i], time.Now())
				for j := range p.visits {
					if p.visits[j].stage == c.stage {
						v = &p.visits[j]
					}
				}
				if v != nil {
					break
				}
			}
			if v == nil {
				t.Fatalf("no packet resolved a visit to stage %d", c.stage)
			}
			v.slots = v.slots[:0]
			before := make([][][]int64, len(h.wregs))
			for i, rf := range h.wregs {
				before[i] = rf.Snapshot()
			}
			msg := func() (msg any) {
				defer func() { msg = recover() }()
				e.workers[v.pipe].execVisit(p, v)
				return nil
			}()
			if s, ok := msg.(string); !ok || !missingTicket.MatchString(s) {
				t.Fatalf("panic %v, want the missing-ticket message", msg)
			}
			if paths.ran(c.stage, c.upFront) != 1 {
				t.Fatalf("visit did not take the up-front=%v path", c.upFront)
			}
			if c.upFront {
				for i, rf := range h.wregs {
					if !reflect.DeepEqual(before[i], rf.Snapshot()) {
						t.Fatalf("pipeline %d's registers changed before the up-front check panicked", i)
					}
				}
			}
		})
	}
}
