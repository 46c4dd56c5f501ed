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
	// log, when enabled with RecordIndexedAccesses, holds every effective
	// access per register slot in processing order.
	log *AccessLog
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
	m.log = NewAccessLog(m.prog)
}

// IndexedAccessLog returns the per-slot access order (AccessLog.Map), or nil
// when logging is off.
func (m *Machine) IndexedAccessLog() map[string][]int64 { return m.log.Map() }

// AccessLog is a per-slot access order: for every register index, clamped
// the way the register file clamps it, the ids of the packets that
// effectively accessed it (predicate held), in the order they did, counted
// once per stage execution. The reference machine, the simulator and the
// dataplane all log C1 order in one; on a single pipeline every sequence is
// ascending. Appends to different slots may run concurrently.
type AccessLog struct {
	// off[r] is register r's first slot in seqs; a register of size n has
	// max(n, 1) slots.
	off  []int
	seqs [][]int64
}

// NewAccessLog returns an empty log with a slot for every index of every
// register of p.
func NewAccessLog(p *ir.Program) *AccessLog {
	l := &AccessLog{off: make([]int, len(p.Regs)+1)}
	for r := range p.Regs {
		l.off[r+1] = l.off[r] + max(p.Regs[r].Size, 1)
	}
	l.seqs = make([][]int64, l.off[len(p.Regs)])
	return l
}

// Slot returns the sequence of register reg's clamped index idx.
func (l *AccessLog) Slot(reg, idx int) *[]int64 { return &l.seqs[l.off[reg]+idx] }

// Append logs packet id accessing register reg at clamped index idx.
func (l *AccessLog) Append(reg, idx int, id int64) {
	s := l.Slot(reg, idx)
	*s = append(*s, id)
}

// Each calls f with every slot that has an access, in (reg, idx) order.
func (l *AccessLog) Each(f func(reg, idx int, seq []int64)) {
	for reg := 0; reg+1 < len(l.off); reg++ {
		for idx, seq := range l.seqs[l.off[reg]:l.off[reg+1]] {
			if len(seq) > 0 {
				f(reg, idx, seq)
			}
		}
	}
}

// Map renders the log keyed AccessKey(reg, idx), one entry per slot with an
// access; a nil log renders nil. The sequences alias the log.
func (l *AccessLog) Map() map[string][]int64 {
	if l == nil {
		return nil
	}
	out := map[string][]int64{}
	l.Each(func(reg, idx int, seq []int64) { out[AccessKey(reg, idx)] = seq })
	return out
}

// AccessKey renders the canonical per-slot state name "r<reg>[<idx>]"
// shared by AccessLog and the simulator's EvAccess events.
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
		if m.log != nil && m.prog.Stages[si].Stateful() {
			obs, m.obsID, m.seen = m.obs, id, m.seen[:0]
		}
		m.execStage(si, env, obs)
	}
}

// observe appends the current packet to each distinct register slot it
// effectively accesses in a stage (predicate held; index clamped).
func (m *Machine) observe(reg int, idx int64, _ bool) {
	slot := [2]int{reg, ir.ClampIndex(int(idx), m.prog.Regs[reg].Size)}
	for _, s := range m.seen {
		if s == slot {
			return
		}
	}
	m.seen = append(m.seen, slot)
	m.log.Append(reg, slot[1], m.obsID)
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
