package equiv_test

import (
	"fmt"
	"reflect"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/banzai"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/equiv"
	"mp5/internal/fuzz"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
	"mp5/internal/workload"
)

// orderCoverage counts the access shapes a per-slot log must handle.
type orderCoverage struct {
	predicated int // programs with a predicated register access
	repeats    int // second accesses to one slot within one stage
	clamped    int // accesses whose raw index lay outside the array
}

// naiveOrder is the per-slot log computed the straightforward way: a fresh
// env per packet, a fresh dedupe set per stateful stage and a formatted
// string key per access. exec runs stage si of the packet with observer obs
// (nil: unobserved) on whichever executor the caller picks.
func naiveOrder(prog *ir.Program, arrivals []core.Arrival, exec func(si int, env *ir.Env, obs ir.AccessObserver), cov *orderCoverage) map[string][]int64 {
	log := map[string][]int64{}
	for i := range arrivals {
		id := int64(i)
		env := ir.NewEnv(prog)
		copy(env.Fields, arrivals[i].Fields)
		for si := range prog.Stages {
			if !prog.Stages[si].Stateful() {
				exec(si, env, nil)
				continue
			}
			seen := map[string]bool{}
			exec(si, env, func(reg int, idx int64, _ bool) {
				size := prog.Regs[reg].Size
				ci := ir.ClampIndex(int(idx), size)
				if int64(ci) != idx {
					cov.clamped++
				}
				key := fmt.Sprintf("r%d[%d]", reg, ci)
				if seen[key] {
					cov.repeats++
					return
				}
				seen[key] = true
				log[key] = append(log[key], id)
			})
		}
	}
	return log
}

// machineOrder runs the trace through m with the per-slot log on.
func machineOrder(m *banzai.Machine, arrivals []core.Arrival) map[string][]int64 {
	m.RecordIndexedAccesses()
	env := ir.NewEnv(m.Program())
	for i := range arrivals {
		env.ResetFor(arrivals[i].Fields)
		m.Process(int64(i), env)
	}
	return m.IndexedAccessLog()
}

// clampSrc indexes past both ends of its arrays: a - 3 is negative for small
// a, and a * 5 runs past the end, so both wrap through the register file's
// clamp.
const clampSrc = `
struct Packet { int a; int b; int out; };
int lo [4] = {0};
int hi [8] = {1};
void f (struct Packet p) {
    if (p.b > 2) {
        lo[p.a - 3] = lo[p.a - 3] + p.b;
    }
    hi[p.a * 5] = hi[p.a * 5] + 1;
    p.out = hi[p.a * 5];
}
`

// TestReferenceOrderMatchesNaiveLog holds the dense per-slot log to the
// naive string-keyed one on fuzz-generated programs with their fuzz traces
// (plus one program built to clamp), on both the interpreter and the VM
// machine, and holds ReferenceOrder to the interpreter's naive log.
func TestReferenceOrderMatchesNaiveLog(t *testing.T) {
	type program struct {
		name string
		src  string
		arrs func(*ir.Program) []core.Arrival
	}
	var progs []program
	for i := 0; i < 60; i++ {
		c := &fuzz.Case{ProgSeed: int64(i)*7919 + 1, Size: i%8 + 1,
			WorkSeed: int64(i)*104729 + 3, Packets: 300, Pipelines: 4}
		progs = append(progs, program{fmt.Sprintf("fuzz-%d", i), c.SourceText(), c.Arrivals})
	}
	progs = append(progs, program{"clamp", clampSrc, func(p *ir.Program) []core.Arrival {
		arrs := trace(p, 400, 4)
		for i := range arrs {
			arrs[i].Fields[0] = int64(i % 7)
			arrs[i].Fields[1] = int64(i % 5)
		}
		return arrs
	}})

	var cov orderCoverage
	for _, pc := range progs {
		prog, err := compiler.Compile(pc.src, compiler.Options{Target: compiler.TargetMP5})
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		arrs := pc.arrs(prog)
		for _, st := range prog.Stages {
			if st.Stateful() && hasPredicatedAccess(st) {
				cov.predicated++
				break
			}
		}

		interpRegs := ir.NewRegFile(prog)
		wantInterp := naiveOrder(prog, arrs, func(si int, env *ir.Env, obs ir.AccessObserver) {
			ir.ExecStageObserved(&prog.Stages[si], env, interpRegs, obs)
		}, &cov)
		interp := banzai.NewMachine(prog)
		interp.Interpret()
		if got := machineOrder(interp, arrs); !reflect.DeepEqual(got, wantInterp) {
			t.Fatalf("%s: interpreter machine's per-slot log differs from the naive log", pc.name)
		}
		if got := equiv.ReferenceOrder(prog, arrs); !reflect.DeepEqual(got, wantInterp) {
			t.Fatalf("%s: ReferenceOrder differs from the naive log", pc.name)
		}

		bc := bytecode.MustCompile(prog)
		vm, vmRegs := bytecode.NewVM(bc), ir.NewRegFile(prog)
		wantVM := naiveOrder(prog, arrs, func(si int, env *ir.Env, obs ir.AccessObserver) {
			if err := vm.ExecStageObserved(&bc.Stages[si], env, vmRegs, obs); err != nil {
				t.Fatal(err)
			}
		}, &orderCoverage{})
		if got := machineOrder(banzai.NewMachine(prog), arrs); !reflect.DeepEqual(got, wantVM) {
			t.Fatalf("%s: VM machine's per-slot log differs from the naive log", pc.name)
		}
	}
	t.Logf("%d programs: %d with predicated accesses, %d same-stage repeats, %d clamped accesses",
		len(progs), cov.predicated, cov.repeats, cov.clamped)
	if cov.predicated == 0 || cov.repeats == 0 || cov.clamped == 0 {
		t.Fatalf("corpus misses an access shape: %+v", cov)
	}
}

func hasPredicatedAccess(st ir.Stage) bool {
	for _, in := range st.Instrs {
		if in.Op.IsStateful() && !in.Pred.IsNone() {
			return true
		}
	}
	return false
}

// wideTrace is the 65,536-packet uniform trace on the 4 x 512 synthetic
// program: few collisions, so every packet touches four distinct slots.
func wideTrace(tb testing.TB) (*ir.Program, []core.Arrival) {
	prog, err := apps.Synthetic(4, 512, 16)
	if err != nil {
		tb.Fatal(err)
	}
	spec := workload.Spec{Packets: 65536, Pipelines: 4, Seed: 1, Pattern: workload.Uniform}
	return prog, workload.Synthetic(prog, spec, 4, 512)
}

// TestReferenceOrderAllocs bounds the reference order's allocations: the
// per-slot log grows one slice per touched slot, so a packet costs well
// under one allocation.
func TestReferenceOrderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race (the race runtime allocates)")
	}
	prog, arrs := wideTrace(t)
	allocs := testing.AllocsPerRun(1, func() { equiv.ReferenceOrder(prog, arrs) })
	if per := allocs / float64(len(arrs)); per > 1 {
		t.Fatalf("ReferenceOrder: %.2f allocations per packet, want <= 1", per)
	}
}

// Sinks keep the benchmarked calls from being optimized away.
var (
	regsSink  [][]int64
	orderSink map[string][]int64
)

func BenchmarkReference(b *testing.B) {
	prog, arrs := wideTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regsSink, _ = equiv.Reference(prog, arrs)
	}
}

func BenchmarkReferenceOrder(b *testing.B) {
	prog, arrs := wideTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderSink = equiv.ReferenceOrder(prog, arrs)
	}
}
