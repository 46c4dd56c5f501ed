// Package banzai models the Banzai machine (Sivaraman et al., SIGCOMM'16)
// that MP5 builds on: a single feed-forward pipeline of match-action stages
// with atomic per-stage state operations. It provides the serial reference
// executor that defines functional equivalence (§2.2.1 of the MP5 paper):
// the final register state and per-packet header state a logical
// single-pipelined switch would produce. Its register file is ir.RegFile.
package banzai

import (
	"fmt"
	"strconv"

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
	// slots, when enabled with RecordIndexedAccesses, logs every effective
	// access per register slot: slots[reg][clamped idx] lists the packet
	// ids in processing order. A register's row is allocated the first
	// time the register is touched.
	slots [][][]int64
	// obs is the access observer, bound once at construction; obsID is the
	// packet it logs and seen the (reg, idx) slots the packet has already
	// touched in the current stage.
	obs   ir.AccessObserver
	obsID int64
	seen  [][2]int
}

// NewMachine builds a reference machine for program p with freshly
// initialized register state. Stages execute through the bytecode VM;
// call Interpret to force the tree-walking interpreter instead.
func NewMachine(p *ir.Program) *Machine {
	bc := bytecode.MustCompile(p)
	m := &Machine{prog: p, regs: NewRegFile(p), bc: bc, vm: bytecode.NewVM(bc)}
	m.obs = m.observe
	return m
}

// Interpret switches the machine to the tree-walking ir interpreter.
// internal/equiv uses this to keep the interpreter as the semantic ground
// truth that the compiled executors are differenced against.
func (m *Machine) Interpret() {
	m.bc, m.vm = nil, nil
}

// execStage runs stage si through the active executor, reporting its
// register accesses to obs when obs is non-nil.
func (m *Machine) execStage(si int, env *ir.Env, obs ir.AccessObserver) {
	if m.bc != nil {
		if err := m.vm.ExecStageObserved(&m.bc.Stages[si], env, m.regs, obs); err != nil {
			panic("banzai: " + err.Error()) // callers pass m.prog-shaped envs
		}
		return
	}
	ir.ExecStageObserved(&m.prog.Stages[si], env, m.regs, obs)
}

// Program returns the compiled program the machine runs.
func (m *Machine) Program() *ir.Program { return m.prog }

// Regs exposes the machine's register file.
func (m *Machine) Regs() *RegFile { return m.regs }

// RecordIndexedAccesses turns on per-slot access-order logging: the exact
// sequence of packet ids touching each individual register index, which on
// a single pipeline is by construction the arrival order. This is the C1
// reference order the differential fuzzing oracle compares against.
func (m *Machine) RecordIndexedAccesses() {
	m.slots = make([][][]int64, len(m.prog.Regs))
}

// IndexedAccessLog returns the per-slot access order, keyed "r<reg>[<idx>]"
// with indices clamped the same way the register file clamps them — the
// granularity of the simulator's EvAccess trace events. Each call renders
// the keys afresh; the sequences alias the machine's log.
func (m *Machine) IndexedAccessLog() map[string][]int64 {
	if m.slots == nil {
		return nil
	}
	out := map[string][]int64{}
	for reg, row := range m.slots {
		for idx, seq := range row {
			if len(seq) > 0 {
				out[AccessKey(reg, idx)] = seq
			}
		}
	}
	return out
}

// AccessKey renders the canonical per-slot state name "r<reg>[<idx>]"
// shared by the reference log and the simulator's EvAccess events.
func AccessKey(reg, idx int) string {
	var buf [48]byte
	b := append(buf[:0], 'r')
	b = strconv.AppendInt(b, int64(reg), 10)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(idx), 10)
	return string(append(b, ']'))
}

// Process runs one packet through all pipeline stages and returns its
// final environment. id is the packet's arrival sequence number (used only
// for access logging). The caller owns env; fields are updated in place.
func (m *Machine) Process(id int64, env *ir.Env) {
	for si := range m.prog.Stages {
		var obs ir.AccessObserver
		if m.slots != nil && m.prog.Stages[si].Stateful() {
			obs, m.obsID, m.seen = m.obs, id, m.seen[:0]
		}
		m.execStage(si, env, obs)
	}
}

// observe appends the current packet to each distinct register slot it
// effectively accesses in a stage (predicate held; index clamped).
func (m *Machine) observe(reg int, idx int64, _ bool) {
	size := m.prog.Regs[reg].Size
	slot := [2]int{reg, ir.ClampIndex(int(idx), size)}
	for _, s := range m.seen {
		if s == slot {
			return
		}
	}
	m.seen = append(m.seen, slot)
	row := m.slots[reg]
	if row == nil {
		row = make([][]int64, max(size, 1))
		m.slots[reg] = row
	}
	row[slot[1]] = append(row[slot[1]], m.obsID)
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
