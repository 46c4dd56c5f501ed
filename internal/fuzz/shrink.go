package fuzz

import (
	"strings"

	"mp5/internal/core"
)

// cloneProgram copies the program's statement list so a shrink trial can
// edit it without touching the original (statement structs are copied by
// value; their assign slices are never mutated in place).
func cloneProgram(p *Program) *Program {
	q := *p
	q.Stmts = append([]Stmt(nil), p.Stmts...)
	q.Regs = append([]RegDecl(nil), p.Regs...)
	q.Fields = append([]string(nil), p.Fields...)
	return &q
}

// pruneDecls drops register arrays, tables and packet fields the program
// text no longer references — cosmetic, but it makes minimized cases read
// like hand-written reproducers.
func pruneDecls(p *Program) *Program {
	var text strings.Builder
	for _, s := range p.Stmts {
		text.WriteString(s.Cond)
		for _, a := range s.Assigns {
			text.WriteString(a.LHS + " " + a.RHS + " ")
		}
		for _, a := range s.Else {
			text.WriteString(a.LHS + " " + a.RHS + " ")
		}
	}
	body := text.String()
	q := cloneProgram(p)
	q.Regs = q.Regs[:0]
	for _, r := range p.Regs {
		if strings.Contains(body, r.Name+"[") {
			q.Regs = append(q.Regs, r)
		}
	}
	// Keep at least one field: the struct may not be empty, and traces
	// need a field vector.
	q.Fields = q.Fields[:0]
	for _, f := range p.Fields {
		if strings.Contains(body, "p."+f) {
			q.Fields = append(q.Fields, f)
		}
	}
	if len(q.Fields) == 0 {
		q.Fields = p.Fields[:1]
	}
	if q.Tables > 0 && !strings.Contains(body, "t0(") {
		q.Tables = 0
	}
	return q
}

// Shrink minimizes a failing case against one core-simulator architecture.
// It is the historical entry point; ShrinkFailure generalizes it to any
// engine configuration.
func Shrink(c *Case, arch core.Arch, budget int) (*Case, *Failure) {
	return ShrinkFailure(c, &Failure{Engine: EngineCore, Arch: arch}, budget)
}

// ShrinkFailure minimizes a failing case against the engine configuration
// that produced like (core architecture at like.CrossLatency, or a
// concurrent engine at like.Workers): first the workload (halving the packet
// count while the failure reproduces), then the program (dropping
// statements, flattening guards, pruning unused declarations), re-running
// the differential check after every edit. budget caps the number of candidate runs. It returns the
// minimized case with its program pinned in Source, plus the failure the
// minimized case still produces — nil if the original case did not reproduce
// at all.
//
// Program-level shrinking needs the generator's structured form, so it is
// skipped when the case arrived with an explicit Source (e.g. replayed
// from an artifact); workload shrinking still applies.
func ShrinkFailure(c *Case, like *Failure, budget int) (*Case, *Failure) {
	cur := *c
	attempts := 0
	try := func(cand *Case) *Failure {
		if attempts >= budget {
			return nil
		}
		attempts++
		if f := runLike(cand, like); f != nil && f.Reason != "compile" {
			return f
		}
		return nil
	}

	best := try(&cur)
	if best == nil {
		return &cur, nil
	}

	// Phase 1: shrink the trace. Halve while the failure survives; most
	// ordering bugs reproduce with a few hundred packets.
	for cur.Packets > 8 && attempts < budget {
		cand := cur
		cand.Packets = cur.Packets / 2
		f := try(&cand)
		if f == nil {
			break
		}
		cur, best = cand, f
	}

	// Phase 2: shrink the program.
	var prog *Program
	if cur.Source == "" {
		prog = GenerateProgram(cur.ProgSeed, cur.Size)
	}
	if prog != nil {
		apply := func(trial *Program) bool {
			cand := cur
			cand.Source = trial.Render()
			if f := try(&cand); f != nil {
				prog, cur, best = trial, cand, f
				return true
			}
			return false
		}
		for changed := true; changed && attempts < budget; {
			changed = false
			// Drop whole statements, last to first (later statements
			// are more likely dead weight for an early-stage bug).
			for i := len(prog.Stmts) - 1; i >= 0 && attempts < budget; i-- {
				if len(prog.Stmts) == 1 {
					break
				}
				trial := cloneProgram(prog)
				trial.Stmts = append(trial.Stmts[:i:i], trial.Stmts[i+1:]...)
				if apply(trial) {
					changed = true
				}
			}
			// Flatten guards: an unconditional reproducer is simpler.
			for i := 0; i < len(prog.Stmts) && attempts < budget; i++ {
				if prog.Stmts[i].Cond == "" {
					continue
				}
				trial := cloneProgram(prog)
				trial.Stmts[i].Cond = ""
				trial.Stmts[i].Else = nil
				if apply(trial) {
					changed = true
				}
			}
			// Drop secondary assigns inside compound statements.
			for i := 0; i < len(prog.Stmts) && attempts < budget; i++ {
				if len(prog.Stmts[i].Assigns) < 2 {
					continue
				}
				trial := cloneProgram(prog)
				trial.Stmts[i].Assigns = trial.Stmts[i].Assigns[:1]
				if apply(trial) {
					changed = true
				}
			}
		}
		if attempts < budget {
			apply(pruneDecls(prog))
		}
		cur.Source = prog.Render()
	}
	return &cur, best
}
