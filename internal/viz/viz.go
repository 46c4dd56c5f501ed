// Package viz renders simulator traces as human-readable views — most
// usefully a pipeline-occupancy timeline: one row per (pipeline, stage),
// one column per cycle, each cell the packet id the stage executed that
// cycle. It makes the architecture's behaviour visible at a glance:
// inline packets marching diagonally, queued packets holding a stateful
// stage, bubbles where a FIFO blocks on a phantom.
package viz

import (
	"fmt"
	"strings"

	"mp5/internal/core"
)

// Timeline accumulates EvExec events over a cycle window.
type Timeline struct {
	stages    int
	pipes     int
	start     int64
	cycles    int
	occ       map[[3]int64]int64 // (cycle, stage, pipe) → packet id
	sawExec   bool
	maxSeen   int64
	lastCycle int64
}

// NewTimeline captures cycles [start, start+cycles).
func NewTimeline(stages, pipes int, start int64, cycles int) *Timeline {
	if stages <= 0 || pipes <= 0 || cycles <= 0 {
		panic("viz: timeline needs positive dimensions")
	}
	return &Timeline{
		stages: stages,
		pipes:  pipes,
		start:  start,
		cycles: cycles,
		occ:    make(map[[3]int64]int64),
	}
}

// Hook returns the trace function to pass as core.Config.Trace. Combine
// with other consumers via Tee.
func (t *Timeline) Hook() func(core.Event) {
	return func(e core.Event) {
		if e.Kind != core.EvExec {
			return
		}
		if e.Cycle < t.start || e.Cycle >= t.start+int64(t.cycles) {
			return
		}
		key := [3]int64{e.Cycle, int64(e.Stage), int64(e.Pipe)}
		if _, dup := t.occ[key]; dup {
			panic(fmt.Sprintf("viz: two packets executed in stage %d pipe %d cycle %d",
				e.Stage, e.Pipe, e.Cycle))
		}
		t.occ[key] = e.PktID
		t.sawExec = true
		if e.PktID > t.maxSeen {
			t.maxSeen = e.PktID
		}
		if e.Cycle > t.lastCycle {
			t.lastCycle = e.Cycle
		}
	}
}

// Render returns the occupancy grid as text. Empty cells print as dots.
func (t *Timeline) Render() string {
	if !t.sawExec {
		return "(no executions in the captured window)\n"
	}
	width := len(fmt.Sprint(t.maxSeen))
	if width < 2 {
		width = 2
	}
	last := int(t.lastCycle-t.start) + 1
	if last > t.cycles {
		last = t.cycles
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "")
	for c := 0; c < last; c++ {
		fmt.Fprintf(&b, " %*d", width, t.start+int64(c))
	}
	b.WriteString("\n")
	for pipe := 0; pipe < t.pipes; pipe++ {
		for stage := 0; stage < t.stages; stage++ {
			fmt.Fprintf(&b, "p%d.s%-4d", pipe, stage)
			for c := 0; c < last; c++ {
				key := [3]int64{t.start + int64(c), int64(stage), int64(pipe)}
				if id, ok := t.occ[key]; ok {
					fmt.Fprintf(&b, " %*d", width, id)
				} else {
					fmt.Fprintf(&b, " %*s", width, strings.Repeat(".", width))
				}
			}
			b.WriteString("\n")
		}
		if pipe != t.pipes-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}
