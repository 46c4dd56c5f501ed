// Package banzai models the Banzai machine (Sivaraman et al., SIGCOMM'16)
// that MP5 builds on: a single feed-forward pipeline of match-action stages
// with atomic per-stage state operations. It provides the serial reference
// executor that defines functional equivalence (§2.2.1 of the MP5 paper):
// the final register state and per-packet header state a logical
// single-pipelined switch would produce. Its register file is ir.RegFile.
package banzai

import (
	"fmt"

	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

// RegFile is the program register file, which lives in internal/ir so the
// bytecode VM can take it concretely. The alias keeps this package's
// register-file surface for callers that build one next to a Machine.
type RegFile = ir.RegFile

// NewRegFile allocates and initializes a register file for program p
// (ir.NewRegFile).
func NewRegFile(p *ir.Program) *RegFile { return ir.NewRegFile(p) }

// Machine models a single Banzai pipeline executing a compiled program
// serially: packets are processed to completion in arrival order, which is
// exactly the behaviour of a single pipeline (each stage holds one packet,
// state effects of packet n are visible to packet n+1; the interleaving of
// different packets across different stages cannot be observed because no
// state is shared across stages).
type Machine struct {
	prog *ir.Program
	regs *RegFile
	// bc and vm hold the bytecode-compiled form of prog and the VM that
	// runs it; nil when the machine was switched to the tree-walking
	// interpreter with Interpret (the semantic oracle mode internal/equiv
	// pins).
	bc *bytecode.Program
	vm *bytecode.VM
	// AccessLog, when enabled with RecordAccesses, appends the packet id
	// of every stateful-stage visit per register array, defining the
	// reference access order for C1 checking.
	accessLog map[int][]int64
	recording bool
	// indexedLog, when enabled with RecordIndexedAccesses, refines the
	// log to individual register slots — keys "r<reg>[<idx>]" with the
	// clamped index — matching the granularity of the simulator's
	// EvAccess trace events (see internal/fuzz's order oracle).
	indexedLog map[string][]int64
}

// NewMachine builds a reference machine for program p with freshly
// initialized register state. Stages execute through the bytecode VM;
// call Interpret to force the tree-walking interpreter instead.
func NewMachine(p *ir.Program) *Machine {
	bc := bytecode.MustCompile(p)
	return &Machine{prog: p, regs: NewRegFile(p), bc: bc, vm: bytecode.NewVM(bc)}
}

// Interpret switches the machine to the tree-walking ir interpreter.
// internal/equiv uses this to keep the interpreter as the semantic ground
// truth that the compiled executors are differenced against.
func (m *Machine) Interpret() {
	m.bc, m.vm = nil, nil
}

// execStage runs stage si through the active executor.
func (m *Machine) execStage(si int, env *ir.Env) {
	if m.bc != nil {
		if err := m.vm.ExecStage(&m.bc.Stages[si], env, m.regs); err != nil {
			panic("banzai: " + err.Error()) // callers pass m.prog-shaped envs
		}
		return
	}
	ir.ExecStage(&m.prog.Stages[si], env, m.regs)
}

// execStageObserved runs stage si through the active executor with C1
// access observation.
func (m *Machine) execStageObserved(si int, env *ir.Env, obs ir.AccessObserver) {
	if m.bc != nil {
		if err := m.vm.ExecStageObserved(&m.bc.Stages[si], env, m.regs, obs); err != nil {
			panic("banzai: " + err.Error())
		}
		return
	}
	ir.ExecStageObserved(&m.prog.Stages[si], env, m.regs, obs)
}

// Program returns the compiled program the machine runs.
func (m *Machine) Program() *ir.Program { return m.prog }

// Regs exposes the machine's register file.
func (m *Machine) Regs() *RegFile { return m.regs }

// RecordAccesses turns on per-register access-order logging.
func (m *Machine) RecordAccesses() {
	m.recording = true
	m.accessLog = map[int][]int64{}
}

// AccessLog returns the recorded access order per register array id:
// the packet ids that visited the array's stage, in processing order.
func (m *Machine) AccessLog() map[int][]int64 { return m.accessLog }

// RecordIndexedAccesses turns on per-slot access-order logging: the exact
// sequence of packet ids touching each individual register index, which on
// a single pipeline is by construction the arrival order. This is the C1
// reference order the differential fuzzing oracle compares against.
func (m *Machine) RecordIndexedAccesses() {
	m.indexedLog = map[string][]int64{}
}

// IndexedAccessLog returns the per-slot access order, keyed "r<reg>[<idx>]"
// with indices clamped the same way the register file clamps them.
func (m *Machine) IndexedAccessLog() map[string][]int64 { return m.indexedLog }

// AccessKey renders the canonical per-slot state name shared by the
// reference log and the simulator's EvAccess events.
func AccessKey(reg, idx int) string {
	return fmt.Sprintf("r%d[%d]", reg, idx)
}

// Process runs one packet through all pipeline stages and returns its
// final environment. id is the packet's arrival sequence number (used only
// for access logging). The caller owns env; fields are updated in place.
func (m *Machine) Process(id int64, env *ir.Env) {
	for si := range m.prog.Stages {
		st := &m.prog.Stages[si]
		if m.recording && st.Stateful() {
			m.logStageVisit(id, env, si)
		}
		if m.indexedLog != nil && st.Stateful() {
			m.processStageIndexed(id, env, si)
			continue
		}
		m.execStage(si, env)
	}
}

// processStageIndexed executes one stage through the observed execution
// path, appending id to each distinct register slot the packet effectively
// accesses (predicate held; index clamped).
func (m *Machine) processStageIndexed(id int64, env *ir.Env, si int) {
	var seen map[string]bool
	m.execStageObserved(si, env, func(reg int, idx int64, write bool) {
		key := AccessKey(reg, ir.ClampIndex(int(idx), m.prog.Regs[reg].Size))
		if seen[key] {
			return
		}
		if seen == nil {
			seen = map[string]bool{}
		}
		seen[key] = true
		m.indexedLog[key] = append(m.indexedLog[key], id)
	})
}

// logStageVisit records which register arrays the packet actually touches
// in stage si, honouring instruction predicates, so the reference log is
// comparable with MP5's runtime log.
func (m *Machine) logStageVisit(id int64, env *ir.Env, si int) {
	seen := map[int]bool{}
	for _, in := range m.prog.Stages[si].Instrs {
		if !in.Op.IsStateful() || seen[in.Reg] {
			continue
		}
		if !in.Pred.IsNone() {
			truth := env.Load(in.Pred) != 0
			if truth == in.PredNeg {
				continue
			}
		}
		seen[in.Reg] = true
		m.accessLog[in.Reg] = append(m.accessLog[in.Reg], id)
	}
}

// Run processes a batch of packet environments in order (index = arrival
// order) and returns them after processing.
func (m *Machine) Run(envs []*ir.Env) []*ir.Env {
	for i, e := range envs {
		m.Process(int64(i), e)
	}
	return envs
}

// String summarizes the machine configuration.
func (m *Machine) String() string {
	return fmt.Sprintf("banzai{program=%s stages=%d regs=%d}",
		m.prog.Name, len(m.prog.Stages), len(m.prog.Regs))
}
