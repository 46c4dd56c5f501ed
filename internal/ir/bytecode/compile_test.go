package bytecode_test

import (
	"reflect"
	"sync"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

// TestCompileLeavesProgramUntouched: Compile reads its ir.Program and
// writes nothing back, so engines may compile one shared program
// concurrently while others already run it. The concurrent half is the
// -race check; the DeepEqual half holds without the race detector.
func TestCompileLeavesProgramUntouched(t *testing.T) {
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			p := app.MustCompile(compiler.TargetMP5)
			before := app.MustCompile(compiler.TargetMP5)
			bytecode.MustCompile(p)
			if !reflect.DeepEqual(p, before) {
				t.Fatal("Compile modified its input program")
			}
		})
	}

	// p's first compiles race its NewEnv calls; the executing goroutines
	// run a twin compiled from an identical program.
	app := apps.All()[0]
	p := app.MustCompile(compiler.TargetMP5)
	bp := bytecode.MustCompile(app.MustCompile(compiler.TargetMP5))
	vm := bytecode.NewVM(bp)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					bytecode.MustCompile(p)
					continue
				}
				env := ir.NewEnv(p)
				env.Fields[0] = int64(g*100 + i)
				regs := ir.NewRegFile(bp.IR)
				for si := range bp.Stages {
					if err := vm.ExecStage(&bp.Stages[si], env, regs); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
