// Executor microbenchmarks: pure ExecStage throughput of the tree-walking
// interpreter vs the bytecode VM, without any simulator scheduling around
// them. `go test -bench Exec ./internal/ir/bytecode` is the first stop when
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

// benchStore is a flat in-memory RegStore (one array per register id).
type benchStore struct {
	regs [][]int64
}

func newBenchStore(p *ir.Program) *benchStore {
	s := &benchStore{regs: make([][]int64, len(p.Regs))}
	for i, r := range p.Regs {
		s.regs[i] = make([]int64, r.Size)
	}
	return s
}

func (s *benchStore) ReadReg(reg, idx int) int64 {
	a := s.regs[reg]
	if idx < 0 || idx >= len(a) {
		return 0
	}
	return a[idx]
}

func (s *benchStore) WriteReg(reg, idx int, v int64) {
	a := s.regs[reg]
	if idx < 0 || idx >= len(a) {
		return
	}
	a[idx] = v
}

func (s *benchStore) LookupTable(t int, k [3]int64) int64 { return k[0] ^ k[1] ^ k[2] }

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
			store := newBenchStore(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Fields[0] = int64(i)
				for si := range prog.Stages {
					ir.ExecStage(&prog.Stages[si], env, store)
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
			store := newBenchStore(prog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Fields[0] = int64(i)
				for si := range bp.Stages {
					if err := vm.ExecStage(&bp.Stages[si], env, store); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
