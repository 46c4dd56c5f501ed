package core_test

import (
	"testing"

	"mp5/internal/core"
	"mp5/internal/workload"
)

// The tests in this file check the trace stream's conservation laws: every
// packet the Result claims to have seen appears in the events, every loss
// has a cause-tagged EvDrop, and the event counts reconcile exactly with
// the Result counters — including under configurations that force each
// drop cause.

// conservationConfigs spans the architectures and the pressure knobs that
// exercise every drop path (phantom overflow, insert miss, data-FIFO
// overflow, ingress overflow, starvation).
func conservationConfigs() map[string]core.Config {
	return map[string]core.Config{
		"mp5":            {Arch: core.ArchMP5, Pipelines: 4, Seed: 2},
		"mp5-tiny-fifo":  {Arch: core.ArchMP5, Pipelines: 4, Seed: 2, FIFOCap: 2},
		"nod4-tiny-fifo": {Arch: core.ArchMP5NoD4, Pipelines: 4, Seed: 2, FIFOCap: 2},
		"mp5-starve":     {Arch: core.ArchMP5, Pipelines: 4, Seed: 2, StarveThreshold: 4},
		"recirc-tiny":    {Arch: core.ArchRecirc, Pipelines: 4, Seed: 2, RecircIngressCap: 2},
		"ideal":          {Arch: core.ArchIdeal, Pipelines: 4, Seed: 2},
	}
}

func TestTraceConservation(t *testing.T) {
	for name, cfg := range conservationConfigs() {
		t.Run(name, func(t *testing.T) {
			prog, trace := synthSetup(t, 3, 64, 4, 3000, workload.Skewed, 41)
			var events []core.Event
			cfg.Trace = func(e core.Event) { events = append(events, e) }
			sim := core.NewSimulator(prog, cfg)
			res := sim.Run(trace)

			admits := map[int64]int{}
			egress := map[int64]int{}
			drops := map[int64]core.DropCause{}
			dropEvents := map[core.DropCause]int64{}
			var phantomDrops, shardMoves int64
			lastCycle := int64(-1)
			for _, e := range events {
				if e.Cycle < lastCycle {
					t.Fatalf("event stream went backwards: cycle %d after %d", e.Cycle, lastCycle)
				}
				lastCycle = e.Cycle
				switch e.Kind {
				case core.EvAdmit:
					admits[e.PktID]++
				case core.EvEgress:
					egress[e.PktID]++
				case core.EvDrop:
					if _, dup := drops[e.PktID]; dup {
						t.Fatalf("packet %d dropped twice", e.PktID)
					}
					if e.Cause == core.CauseNone {
						t.Fatalf("packet %d dropped with no cause", e.PktID)
					}
					drops[e.PktID] = e.Cause
					dropEvents[e.Cause]++
				case core.EvPhantomDrop:
					phantomDrops++
				case core.EvShardMove:
					shardMoves++
				}
			}

			// One egress per completed packet, and no packet both
			// egresses and drops.
			for id, n := range egress {
				if n != 1 {
					t.Errorf("packet %d egressed %d times", id, n)
				}
				if cause, ok := drops[id]; ok {
					t.Errorf("packet %d egressed and dropped (%v)", id, cause)
				}
			}
			// Every admitted packet resolves one way; ingress-dropped
			// packets (recirc) never get an admit event.
			for id := range admits {
				if egress[id] == 0 && drops[id] == core.CauseNone {
					t.Errorf("admitted packet %d neither egressed nor dropped", id)
				}
			}
			for id, cause := range drops {
				if cause == core.CauseIngress {
					if admits[id] != 0 {
						t.Errorf("ingress-dropped packet %d was admitted", id)
					}
				} else if admits[id] == 0 {
					t.Errorf("dropped packet %d (%v) never admitted", id, cause)
				}
			}

			// Event counts reconcile exactly with the Result.
			if got := int64(len(egress)); got != res.Completed {
				t.Errorf("egress events %d != Completed %d", got, res.Completed)
			}
			offered := int64(len(admits)) + dropEvents[core.CauseIngress]
			if offered != res.Injected {
				t.Errorf("unique admits + ingress drops = %d != Injected %d", offered, res.Injected)
			}
			for cause, want := range map[core.DropCause]int64{
				core.CauseData:    res.DroppedData,
				core.CauseInsert:  res.DroppedInsert,
				core.CauseIngress: res.DroppedIngress,
				core.CauseStarved: res.DroppedStarved,
			} {
				if dropEvents[cause] != want {
					t.Errorf("%v drop events %d != Result %d", cause, dropEvents[cause], want)
				}
			}
			if phantomDrops != res.DroppedPhantom {
				t.Errorf("phantom-drop events %d != DroppedPhantom %d", phantomDrops, res.DroppedPhantom)
			}
			if shardMoves != res.ShardMoves {
				t.Errorf("shard-move events %d != ShardMoves %d", shardMoves, res.ShardMoves)
			}
			// The conservation law itself.
			if res.Completed+res.PacketDrops() != res.Injected {
				t.Errorf("Completed %d + drops %d != Injected %d",
					res.Completed, res.PacketDrops(), res.Injected)
			}
		})
	}
}

// TestTraceConservationForcesDrops makes sure the pressure configs above
// actually exercise the drop paths they are named for — otherwise the
// conservation test would pass vacuously.
func TestTraceConservationForcesDrops(t *testing.T) {
	run := func(cfg core.Config) *core.Result {
		prog, trace := synthSetup(t, 3, 64, 4, 3000, workload.Skewed, 41)
		sim := core.NewSimulator(prog, cfg)
		return sim.Run(trace)
	}
	if r := run(core.Config{Arch: core.ArchMP5NoD4, Pipelines: 4, Seed: 2, FIFOCap: 2}); r.DroppedData == 0 {
		t.Error("no-D4 with tiny FIFOs produced no data drops")
	}
	if r := run(core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 2, FIFOCap: 2}); r.DroppedPhantom == 0 && r.DroppedInsert == 0 {
		t.Error("MP5 with tiny FIFOs produced no phantom or insert drops")
	}
	if r := run(core.Config{Arch: core.ArchRecirc, Pipelines: 4, Seed: 2, RecircIngressCap: 2}); r.DroppedIngress == 0 {
		t.Error("recirc with a tiny ingress buffer produced no ingress drops")
	}
}
