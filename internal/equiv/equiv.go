// Package equiv checks functional equivalence (§2.2.1) between a simulated
// multi-pipeline switch and the logical single-pipeline reference: starting
// from the same initial state and the same input packet stream, the final
// register state and every packet's final header contents must be
// identical.
package equiv

import (
	"fmt"
	"sort"
	"strings"

	"mp5/internal/banzai"
	"mp5/internal/core"
	"mp5/internal/ir"
)

// Mismatch describes one difference between the reference and the
// simulated switch.
type Mismatch struct {
	// Kind is "register" or "packet".
	Kind string
	// Reg/Idx locate a register mismatch.
	Reg, Idx int
	// PktID/Field locate a packet-state mismatch.
	PktID int64
	Field int
	// Want is the reference value; Got the simulated one.
	Want, Got int64
}

// String renders the mismatch.
func (m Mismatch) String() string {
	if m.Kind == "register" {
		return fmt.Sprintf("register r%d[%d]: reference=%d simulated=%d", m.Reg, m.Idx, m.Want, m.Got)
	}
	return fmt.Sprintf("packet %d field %d: reference=%d simulated=%d", m.PktID, m.Field, m.Want, m.Got)
}

// Report is the outcome of an equivalence check.
type Report struct {
	Equivalent bool
	// Mismatches lists up to Limit differences (register state first,
	// then packet state in ascending packet-id order — the listing is
	// deterministic for a given run).
	Mismatches []Mismatch
	// Total counts every mismatch found, including those beyond the
	// Limit cap on the recorded list.
	Total int
	// PacketsCompared counts packets whose outputs were checked.
	PacketsCompared int
}

// String renders the report in a stable, diff-friendly form: a verdict
// line, then one line per recorded mismatch, then an elision line when
// mismatches were dropped at the cap.
func (r *Report) String() string {
	var b strings.Builder
	if r.Equivalent {
		fmt.Fprintf(&b, "equivalent (%d packets compared)", r.PacketsCompared)
		return b.String()
	}
	fmt.Fprintf(&b, "NOT equivalent: %d mismatches (%d packets compared)", r.Total, r.PacketsCompared)
	for _, m := range r.Mismatches {
		b.WriteString("\n  ")
		b.WriteString(m.String())
	}
	if r.Total > len(r.Mismatches) {
		fmt.Fprintf(&b, "\n  ... and %d more", r.Total-len(r.Mismatches))
	}
	return b.String()
}

// Limit caps the number of recorded mismatches.
const Limit = 32

// Ref is one run of the single-pipeline reference over an arrival trace:
// the final register snapshot, every packet's final header fields, and the
// per-slot access order. One Ref serves any number of checks, so a caller
// that needs both the state and the C1 verdict pays for one pass.
type Ref struct {
	Regs    [][]int64
	Outputs map[int64][]int64
	// Order lists, for every individual register index, the packet ids that
	// effectively accessed it (predicate held), keyed "r<reg>[<idx>]". On a
	// single pipeline packets execute to completion in arrival order, so
	// each sequence is strictly ascending; this is the order correctness
	// condition C1 requires every implementation to reproduce.
	Order map[string][]int64
}

// Run executes the single-pipeline reference over the arrival trace (in
// arrival order — the definition of the logical single-pipeline switch) and
// returns its registers, outputs and per-slot order.
func Run(prog *ir.Program, arrivals []core.Arrival) *Ref {
	return run(prog, arrivals, true, true)
}

// run is the one reference pass; keepOutputs and keepOrder select what it
// records. The machine is pinned to the tree-walking ir interpreter: with
// every engine defaulting to the bytecode VM, the interpreter stays the
// independent semantic ground truth the compiled path is differenced
// against (a miscompile cannot cancel out of the comparison).
func run(prog *ir.Program, arrivals []core.Arrival, keepOutputs, keepOrder bool) *Ref {
	m := banzai.NewMachine(prog)
	m.Interpret()
	if keepOrder {
		m.RecordIndexedAccesses()
	}
	ref := &Ref{}
	// Outputs share one backing slab, one capped row per packet (a nil
	// slab, for a program without fields, gives nil rows).
	nf := len(prog.Fields)
	var slab []int64
	if keepOutputs {
		ref.Outputs = make(map[int64][]int64, len(arrivals))
		if nf > 0 {
			slab = make([]int64, nf*len(arrivals))
		}
	}
	env := ir.NewEnv(prog)
	for i := range arrivals {
		env.ResetFor(arrivals[i].Fields)
		m.Process(int64(i), env)
		if keepOutputs {
			out := slab[i*nf : (i+1)*nf : (i+1)*nf]
			copy(out, env.Fields)
			ref.Outputs[int64(i)] = out
		}
	}
	ref.Regs = m.Regs().Snapshot()
	ref.Order = m.IndexedAccessLog()
	return ref
}

// Reference returns the final register snapshot and per-packet outputs of
// the single-pipeline reference (Run without the order).
func Reference(prog *ir.Program, arrivals []core.Arrival) (regs [][]int64, outputs map[int64][]int64) {
	ref := run(prog, arrivals, true, false)
	return ref.Regs, ref.Outputs
}

// Check compares a completed simulation against the reference execution of
// the same program and trace. The simulator must have been run with
// RecordOutputs; only packets that completed (not dropped) are compared,
// and register equivalence is only meaningful for loss-free runs (§3.5.1) —
// the caller should ensure no drops occurred before trusting it.
func Check(prog *ir.Program, sim *core.Simulator, arrivals []core.Arrival) *Report {
	return CheckState(prog, sim.FinalRegs(), sim.Outputs(), arrivals)
}

// CheckState is the engine-agnostic core of Check: it compares a final
// register snapshot and a per-packet output map — however they were produced
// (cycle simulator, concurrent dataplane, …) — against the single-pipeline
// reference execution of the same program and trace. outputs must be
// non-nil (the engine must have recorded per-packet final fields).
func CheckState(prog *ir.Program, simRegs [][]int64, simOut map[int64][]int64, arrivals []core.Arrival) *Report {
	return run(prog, arrivals, true, false).Check(simRegs, simOut)
}

// Check compares a final register snapshot and a per-packet output map
// against the reference (see CheckState). simOut must be non-nil.
func (ref *Ref) Check(simRegs [][]int64, simOut map[int64][]int64) *Report {
	rep := &Report{Equivalent: true}
	// Every mismatch counts toward Total; only the first Limit are kept,
	// so one systematic divergence cannot hide the scale of the damage.
	add := func(m Mismatch) {
		rep.Equivalent = false
		rep.Total++
		if len(rep.Mismatches) < Limit {
			rep.Mismatches = append(rep.Mismatches, m)
		}
	}
	for r := range ref.Regs {
		for i := range ref.Regs[r] {
			if ref.Regs[r][i] != simRegs[r][i] {
				add(Mismatch{Kind: "register", Reg: r, Idx: i,
					Want: ref.Regs[r][i], Got: simRegs[r][i]})
			}
		}
	}
	if simOut == nil {
		panic("equiv: engine was not run with RecordOutputs")
	}
	// Iterate packets in ascending id order so the recorded mismatch list
	// (and therefore Report.String) is deterministic across runs.
	ids := make([]int64, 0, len(simOut))
	for id := range simOut {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		got := simOut[id]
		want := ref.Outputs[id]
		rep.PacketsCompared++
		for f := range want {
			if want[f] != got[f] {
				add(Mismatch{Kind: "packet", PktID: id, Field: f,
					Want: want[f], Got: got[f]})
			}
		}
	}
	return rep
}

// ReferenceOrder returns the per-slot access order of the single-pipeline
// reference over the arrival trace (Run's Order, without the outputs).
func ReferenceOrder(prog *ir.Program, arrivals []core.Arrival) map[string][]int64 {
	return run(prog, arrivals, false, true).Order
}

// ViolationStats summarizes C1 bookkeeping for a run: the number of state
// access sequences inspected and how many packets jumped ahead of an
// earlier arrival on some shared state.
type ViolationStats struct {
	States     int
	Accesses   int64
	Violating  int64
	OfComplete float64
}

// Violations recomputes C1-violation statistics from a simulator run with
// RecordAccessOrder enabled.
func Violations(sim *core.Simulator, completed int64) ViolationStats {
	var st ViolationStats
	violators := map[int64]bool{}
	for _, seq := range sim.AccessOrders() {
		st.States++
		st.Accesses += int64(len(seq))
		minSuffix := int64(1<<63 - 1)
		for i := len(seq) - 1; i >= 0; i-- {
			if seq[i] > minSuffix {
				violators[seq[i]] = true
			}
			if seq[i] < minSuffix {
				minSuffix = seq[i]
			}
		}
	}
	st.Violating = int64(len(violators))
	if completed > 0 {
		st.OfComplete = float64(st.Violating) / float64(completed)
	}
	return st
}
