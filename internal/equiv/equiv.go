// Package equiv checks functional equivalence (§2.2.1) between a simulated
// multi-pipeline switch and the logical single-pipeline reference: starting
// from the same initial state and the same input packet stream, the final
// register state and every packet's final header contents must be
// identical, and every register slot must see its accesses in the same
// order (C1). Ref.Verify is the one verdict every differential caller uses.
package equiv

import (
	"fmt"
	"slices"
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

// OrderDiv names one point where a state's observed access order diverged
// from the single-pipeline reference. Want/Got are packet ids; -1 marks a
// missing entry (sequences of different length, or a missing or spurious
// state).
type OrderDiv struct {
	State string `json:"state"`
	Pos   int    `json:"pos"`
	Want  int64  `json:"want"`
	Got   int64  `json:"got"`
}

func (d OrderDiv) String() string {
	return fmt.Sprintf("%s position %d: reference packet %d, observed %d",
		d.State, d.Pos, d.Want, d.Got)
}

// Report is the outcome of an equivalence check.
type Report struct {
	// Equivalent means state and order both match the reference.
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
	// Order lists the first access-order divergence per state, in state-name
	// order, up to OrderLimit states.
	Order []OrderDiv
	// OrderTotal counts every state whose order diverged, including those
	// beyond the OrderLimit cap on Order.
	OrderTotal int
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
	fmt.Fprintf(&b, "NOT equivalent: %d mismatches", r.Total)
	if r.OrderTotal > 0 {
		fmt.Fprintf(&b, ", %d states out of order", r.OrderTotal)
	}
	fmt.Fprintf(&b, " (%d packets compared)", r.PacketsCompared)
	for _, m := range r.Mismatches {
		b.WriteString("\n  ")
		b.WriteString(m.String())
	}
	if r.Total > len(r.Mismatches) {
		fmt.Fprintf(&b, "\n  ... and %d more", r.Total-len(r.Mismatches))
	}
	for _, d := range r.Order {
		b.WriteString("\n  order: ")
		b.WriteString(d.String())
	}
	if r.OrderTotal > len(r.Order) {
		fmt.Fprintf(&b, "\n  ... and %d more states out of order", r.OrderTotal-len(r.Order))
	}
	return b.String()
}

// Limit caps the number of recorded mismatches.
const Limit = 32

// OrderLimit caps the number of states whose order divergence is recorded.
const OrderLimit = 8

// Ref is one run of the single-pipeline reference over an arrival trace:
// the final register snapshot, every packet's final header fields, and the
// per-slot access order. One Ref serves any number of verdicts, and one pass
// gives both the state and the order a verdict compares.
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

// CheckState is the engine-agnostic state half of Verify: it compares a
// final register snapshot and a per-packet output map — however they were
// produced (cycle simulator, concurrent dataplane, …) — against the
// single-pipeline reference execution of the same program and trace, without
// the order. outputs must be non-nil (the engine must have recorded
// per-packet final fields).
func CheckState(prog *ir.Program, simRegs [][]int64, simOut map[int64][]int64, arrivals []core.Arrival) *Report {
	return run(prog, arrivals, true, false).Verify(simRegs, simOut, nil)
}

// Verify is the C1 verdict: it compares a run's final register snapshot,
// per-packet output map and per-slot access order against the reference.
// simOut must be non-nil. A nil order against a Ref run without order (as
// CheckState's) compares no order; against a Ref with order it reports every
// reference state as missing. Only loss-free runs have a state to compare
// (see Liveness).
func (ref *Ref) Verify(simRegs [][]int64, simOut map[int64][]int64, order map[string][]int64) *Report {
	rep := &Report{}
	// Every mismatch counts toward Total; only the first Limit are kept,
	// so one systematic divergence cannot hide the scale of the damage.
	add := func(m Mismatch) {
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
	rep.Order, rep.OrderTotal = diffOrders(ref.Order, order)
	rep.Equivalent = rep.Total == 0 && rep.OrderTotal == 0
	return rep
}

// diffOrders returns the first divergence of every state whose observed
// access sequence differs from the reference, in state-name order and
// capped at OrderLimit, and the number of such states; a state missing from
// got, or present only there, diverges at position 0. The pass path walks
// the keys once, and only divergences are sorted.
func diffOrders(want, got map[string][]int64) ([]OrderDiv, int) {
	var divs []OrderDiv
	shared := 0
	for k, w := range want {
		g, ok := got[k]
		if ok {
			shared++
		}
		if d, diverged := firstDiv(k, w, g); diverged {
			divs = append(divs, d)
		}
	}
	if shared < len(got) { // got holds states the reference never touched
		for k, g := range got {
			if _, ok := want[k]; !ok {
				d, _ := firstDiv(k, nil, g)
				divs = append(divs, d)
			}
		}
	}
	slices.SortFunc(divs, func(a, b OrderDiv) int { return strings.Compare(a.State, b.State) })
	return divs[:min(len(divs), OrderLimit)], len(divs)
}

// firstDiv finds the first position where two access sequences of state
// differ; a position past the end of one reads -1.
func firstDiv(state string, w, g []int64) (OrderDiv, bool) {
	for i := 0; i < max(len(w), len(g)); i++ {
		wv, gv := int64(-1), int64(-1)
		if i < len(w) {
			wv = w[i]
		}
		if i < len(g) {
			gv = g[i]
		}
		if wv != gv {
			return OrderDiv{State: state, Pos: i, Want: wv, Got: gv}, true
		}
	}
	return OrderDiv{}, false
}

// Liveness names why a finished run has no final state to compare: "stall"
// when it ended with packets still in flight, "loss" when fewer packets
// completed than were injected, and "" when every packet completed. Register
// equivalence is only meaningful for loss-free runs (§3.5.1), so every
// differential caller asks before it calls Verify.
func Liveness(stalled bool, completed, injected int64) string {
	switch {
	case stalled:
		return "stall"
	case completed != injected:
		return "loss"
	}
	return ""
}

// ReferenceOrder returns the per-slot access order of the single-pipeline
// reference over the arrival trace (Run's Order, without the outputs).
func ReferenceOrder(prog *ir.Program, arrivals []core.Arrival) map[string][]int64 {
	return run(prog, arrivals, false, true).Order
}
