package viz_test

import (
	"strings"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/telemetry"
	"mp5/internal/viz"
	"mp5/internal/workload"
)

func TestTimelineRendersSyntheticEvents(t *testing.T) {
	tl := viz.NewTimeline(2, 2, 0, 4)
	hook := tl.Hook()
	// Packet 0 marches through pipe 0; packet 1 through pipe 1, one
	// cycle behind.
	hook(core.Event{Cycle: 0, Kind: core.EvExec, PktID: 0, Stage: 0, Pipe: 0})
	hook(core.Event{Cycle: 1, Kind: core.EvExec, PktID: 0, Stage: 1, Pipe: 0})
	hook(core.Event{Cycle: 1, Kind: core.EvExec, PktID: 1, Stage: 0, Pipe: 1})
	hook(core.Event{Cycle: 2, Kind: core.EvExec, PktID: 1, Stage: 1, Pipe: 1})
	// Non-exec events are ignored.
	hook(core.Event{Cycle: 0, Kind: core.EvEgress, PktID: 9, Stage: 1, Pipe: 1})
	out := tl.Render()
	for _, want := range []string{"p0.s0", "p1.s1", " 0", " 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 2 stages × 2 pipes + 1 blank separator.
	if len(lines) != 1+4+1 {
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}

func TestTimelineEmptyWindow(t *testing.T) {
	tl := viz.NewTimeline(2, 2, 100, 4)
	if out := tl.Render(); !strings.Contains(out, "no executions") {
		t.Errorf("empty render = %q", out)
	}
}

func TestTimelineDoubleOccupancyPanics(t *testing.T) {
	tl := viz.NewTimeline(1, 1, 0, 2)
	hook := tl.Hook()
	hook(core.Event{Cycle: 0, Kind: core.EvExec, PktID: 0, Stage: 0, Pipe: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("double occupancy not detected")
		}
	}()
	hook(core.Event{Cycle: 0, Kind: core.EvExec, PktID: 1, Stage: 0, Pipe: 0})
}

// TestTimelineOnRealRun drives a real simulation through the hook and
// checks the diagonal march of an inline packet.
func TestTimelineOnRealRun(t *testing.T) {
	prog, err := apps.Synthetic(1, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{
		Packets: 40, Pipelines: 2, Seed: 1,
	}, 1, 64)
	tl := viz.NewTimeline(prog.NumStages(), 2, 0, 30)
	var events int
	sim := core.NewSimulator(prog, core.Config{
		Arch: core.ArchMP5, Pipelines: 2, Seed: 1,
		Trace: telemetry.Tee(tl.Hook(), func(core.Event) { events++ }),
	})
	res := sim.Run(trace)
	if res.Completed != res.Injected {
		t.Fatalf("loss: %+v", res)
	}
	if events == 0 {
		t.Fatal("tee did not fan out")
	}
	out := tl.Render()
	// Packet 0 enters pipe 0 stage 0 at cycle 0 and, unobstructed,
	// executes stage i at cycle i.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], " 0") {
		t.Errorf("packet 0 missing from p0.s0 row:\n%s", out)
	}
}
