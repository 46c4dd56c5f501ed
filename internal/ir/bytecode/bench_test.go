// Executor microbenchmarks: pure ExecStage throughput of the tree-walking
// interpreter vs the bytecode VM, without any simulator scheduling around
// them, both against the ir.RegFile the engines run (the VM takes it
// concretely, the interpreter through ir.RegStore).
// `go test -bench Exec ./internal/ir/bytecode` is the first stop when
// the benchmark's ir.exec_ns_per_pkt / bytecode.exec_ns_per_pkt rungs move
// (bench/README.md).
package bytecode_test

import (
	"testing"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

func benchPrograms(b *testing.B) map[string]*ir.Program {
	b.Helper()
	out := map[string]*ir.Program{}
	for _, app := range apps.All() {
		out[app.Name] = app.MustCompile(compiler.TargetMP5)
	}
	synth, err := apps.Synthetic(4, 512, 16)
	if err != nil {
		b.Fatal(err)
	}
	out["synthetic"] = synth
	return out
}

func BenchmarkExecInterp(b *testing.B) {
	for name, prog := range benchPrograms(b) {
		b.Run(name, func(b *testing.B) {
			env := ir.NewEnv(prog)
			regs := ir.NewRegFile(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Fields[0] = int64(i)
				for si := range prog.Stages {
					ir.ExecStage(&prog.Stages[si], env, regs)
				}
			}
		})
	}
}

func BenchmarkExecBytecode(b *testing.B) {
	for name, prog := range benchPrograms(b) {
		b.Run(name, func(b *testing.B) {
			bp := bytecode.MustCompile(prog)
			vm := bytecode.NewVM(bp)
			env := ir.NewEnv(prog)
			regs := ir.NewRegFile(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Fields[0] = int64(i)
				for si := range bp.Stages {
					if err := vm.ExecStage(&bp.Stages[si], env, regs); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
