package core_test

import (
	"reflect"
	"testing"

	"mp5/internal/core"
	"mp5/internal/ir"
	"mp5/internal/workload"
)

// observables bundles everything the two schedulers must agree on bit for
// bit: the result summary, the full trace-event stream, packet outputs,
// egress order, per-state access order, and final register state.
type observables struct {
	res    core.Result
	events []core.Event
	out    map[int64][]int64
	egress []int64
	access map[string][]int64
	regs   [][]int64
}

// runObserved executes one simulation and collects its observables.
// fullSweep selects the legacy per-cycle scheduler (the pre-event-driven
// core, kept as the in-repo equivalence oracle).
func runObserved(prog *ir.Program, cfg core.Config, trace []core.Arrival, fullSweep bool) observables {
	var events []core.Event
	cfg.RecordOutputs = true
	cfg.RecordAccessOrder = true
	cfg.Trace = func(e core.Event) { events = append(events, e) }
	sim := core.NewSimulator(prog, cfg)
	sim.SetFullSweep(fullSweep)
	res := sim.Run(trace)
	return observables{
		res:    *res,
		events: events,
		out:    sim.Outputs(),
		egress: sim.EgressOrder(),
		access: sim.AccessOrders(),
		regs:   sim.FinalRegs(),
	}
}

// sparsify spreads a dense trace into bursts separated by long idle gaps —
// the bursty shape where the event-driven scheduler's fast-forward matters.
// Cycle order is preserved: offsets grow monotonically with the index.
func sparsify(trace []core.Arrival, burst int, gap int64) []core.Arrival {
	out := make([]core.Arrival, len(trace))
	for i, a := range trace {
		a.Cycle += int64(i/burst) * gap
		out[i] = a
	}
	return out
}

// sweepCases covers every architecture and feature knob (each run on a
// 1,500-packet skewed trace of `stages` stateful stages × `regs` entries).
var sweepCases = []struct {
	name   string
	cfg    core.Config
	stages int
	regs   int
}{
	{"mp5-skewed", core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 3}, 4, 64},
	{"mp5-k1", core.Config{Arch: core.ArchMP5, Pipelines: 1, Seed: 3}, 2, 32},
	{"mp5-crosslat-fifocap", core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 5, CrossLatency: 3, FIFOCap: 8}, 3, 32},
	{"mp5-starve-ecn", core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 7, StarveThreshold: 8, ECNThreshold: 4}, 2, 64},
	{"nod4-fifocap", core.Config{Arch: core.ArchMP5NoD4, Pipelines: 4, Seed: 3, FIFOCap: 4}, 3, 64},
	{"ideal", core.Config{Arch: core.ArchIdeal, Pipelines: 4, Seed: 3}, 3, 64},
	{"naive", core.Config{Arch: core.ArchNaive, Pipelines: 2, Seed: 3}, 2, 32},
	{"static-shard", core.Config{Arch: core.ArchStaticShard, Pipelines: 4, Seed: 9}, 3, 64},
	{"recirc", core.Config{Arch: core.ArchRecirc, Pipelines: 4, Seed: 3, RecircIngressCap: 16}, 3, 64},
}

// TestEventDrivenMatchesFullSweep is the tentpole equivalence gate: the
// event-driven scheduler (occupancy skip lists + live-entity counter + idle
// fast-forward) must be observationally identical to the legacy full-sweep
// scheduler on every architecture and feature knob, on dense and on sparse
// traces alike. Any divergence — one event, one counter, one output word —
// fails.
func TestEventDrivenMatchesFullSweep(t *testing.T) {
	for _, tc := range sweepCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, dense := synthSetup(t, tc.stages, tc.regs, tc.cfg.Pipelines, 1500, workload.Skewed, tc.cfg.Seed)
			traces := map[string][]core.Arrival{
				"dense":  dense,
				"sparse": sparsify(dense, 64, 5000),
			}
			for shape, trace := range traces {
				event := runObserved(prog, tc.cfg, trace, false)
				sweep := runObserved(prog, tc.cfg, trace, true)
				if !reflect.DeepEqual(event.res, sweep.res) {
					t.Fatalf("%s: results diverge:\nevent: %+v\nsweep: %+v", shape, event.res, sweep.res)
				}
				if len(event.events) != len(sweep.events) {
					t.Fatalf("%s: event counts diverge: %d vs %d", shape, len(event.events), len(sweep.events))
				}
				for i := range event.events {
					if event.events[i] != sweep.events[i] {
						t.Fatalf("%s: event %d diverges: %v vs %v", shape, i, event.events[i], sweep.events[i])
					}
				}
				if !reflect.DeepEqual(event.out, sweep.out) {
					t.Fatalf("%s: outputs diverge", shape)
				}
				if !reflect.DeepEqual(event.egress, sweep.egress) {
					t.Fatalf("%s: egress order diverges", shape)
				}
				if !reflect.DeepEqual(event.access, sweep.access) {
					t.Fatalf("%s: access orders diverge", shape)
				}
				if !reflect.DeepEqual(event.regs, sweep.regs) {
					t.Fatalf("%s: final registers diverge", shape)
				}
			}
		})
	}
}

// TestSparseTraceCyclesUnchanged pins the semantics of fast-forwarding:
// jumping over idle gaps must not change the cycle accounting — Result
// carries the same Cycles/FirstDone/LastDone a per-cycle walk produces.
func TestSparseTraceCyclesUnchanged(t *testing.T) {
	prog, dense := synthSetup(t, 3, 64, 4, 800, workload.Uniform, 11)
	trace := sparsify(dense, 32, 20000)
	cfg := core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 3}
	ev := runObserved(prog, cfg, trace, false)
	sw := runObserved(prog, cfg, trace, true)
	if ev.res.Cycles != sw.res.Cycles || ev.res.LastDone != sw.res.LastDone {
		t.Fatalf("cycle accounting diverges: event %d/%d, sweep %d/%d",
			ev.res.Cycles, ev.res.LastDone, sw.res.Cycles, sw.res.LastDone)
	}
	if ev.res.Completed != ev.res.Injected {
		t.Fatalf("sparse run lost packets: %d of %d", ev.res.Completed, ev.res.Injected)
	}
}

// TestBookkeepingDrained is the leak regression: after a drop-heavy run —
// tiny FIFOs force phantom overflows, insert misses (CauseInsert), and
// dead-phantom pops — no data packet may still be parked and the
// live-entity counter must be back at zero.
func TestBookkeepingDrained(t *testing.T) {
	for _, lat := range []int64{0, 3} {
		prog, trace := synthSetup(t, 3, 16, 4, 3000, workload.Skewed, 17)
		sim := core.NewSimulator(prog, core.Config{
			Arch: core.ArchMP5, Pipelines: 4, Seed: 3,
			FIFOCap: 2, CrossLatency: lat,
		})
		res := sim.Run(trace)
		if res.Stalled {
			t.Fatalf("lat=%d: stalled", lat)
		}
		if res.PacketDrops() == 0 || res.DroppedPhantom == 0 {
			t.Fatalf("lat=%d: scenario not drop-heavy (drops=%d phantom=%d) — tighten it",
				lat, res.PacketDrops(), res.DroppedPhantom)
		}
		if inserts, live := sim.BookkeepingLive(); inserts != 0 || live != 0 {
			t.Fatalf("lat=%d: bookkeeping not drained: pendingInserts=%d live=%d", lat, inserts, live)
		}
	}
}

// TestRetryOrderDeterministic locks in the pendingInserts retry-order fix:
// with CrossLatency > 0 many packets park and retry in the same cycle, and
// the retry order is observable through same-cycle event interleaving (and
// through ECN marks under contention). Two runs of the same seed must
// produce byte-identical event streams. Before the fix the snapshot ranged
// over a Go map, so this flaked.
func TestRetryOrderDeterministic(t *testing.T) {
	prog, trace := synthSetup(t, 3, 16, 4, 2500, workload.Skewed, 23)
	cfg := core.Config{
		Arch: core.ArchMP5, Pipelines: 4, Seed: 3,
		CrossLatency: 4, FIFOCap: 3, ECNThreshold: 2,
	}
	a := runObserved(prog, cfg, trace, false)
	if a.res.ParkedEarly == 0 {
		t.Fatal("scenario exercises no early-data parking — tighten it")
	}
	for run := 0; run < 3; run++ {
		b := runObserved(prog, cfg, trace, false)
		if len(a.events) != len(b.events) {
			t.Fatalf("run %d: event counts diverge: %d vs %d", run, len(a.events), len(b.events))
		}
		for i := range a.events {
			if a.events[i] != b.events[i] {
				t.Fatalf("run %d: event %d diverges: %v vs %v", run, i, a.events[i], b.events[i])
			}
		}
		if !reflect.DeepEqual(a.res, b.res) {
			t.Fatalf("run %d: results diverge:\n%+v\n%+v", run, a.res, b.res)
		}
	}
}

// TestRunRecyclesPackets pins the allocation behaviour of a line-rate run:
// egressed packets (env and visit lists included) are reused for later
// arrivals, so a run allocates well under one object per packet where it
// used to allocate five. It measures 0.84 (0.87 with the former id-keyed
// phantom maps and copying ingress compaction). (TestMP5EquivalenceSynthetic
// holds the recycled runs to the single-pipeline reference.)
func TestRunRecyclesPackets(t *testing.T) {
	const n = 8192
	prog, trace := synthSetup(t, 4, 512, 4, n, workload.Skewed, 1)
	cfg := core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 1}
	perPkt := testing.AllocsPerRun(3, func() {
		if res := core.NewSimulator(prog, cfg).Run(trace); res.Completed != n {
			t.Fatalf("completed %d of %d", res.Completed, n)
		}
	}) / n
	if perPkt >= 0.85 {
		t.Fatalf("%.3f allocations per packet, want < 0.85", perPkt)
	}
}

// TestRecordedRunAllocs bounds what recording costs in allocations, on the
// 65,536-packet sim-skewed shape (4 x 512, k = 4): outputs go into one
// arena and the access order into dense per-register rows, so a recorded
// run allocates at most half an object per packet more than a plain one
// (the rows' append growth; 1.27 when every output was a fresh slice in a
// map and the order a map of slices).
func TestRecordedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race (the race runtime allocates)")
	}
	const n = 65536
	prog, trace := synthSetup(t, 4, 512, 4, n, workload.Skewed, 1)
	perPkt := func(record bool) float64 {
		cfg := core.Config{Arch: core.ArchMP5, Pipelines: 4, Seed: 1, RecordOutputs: record, RecordAccessOrder: record}
		return testing.AllocsPerRun(1, func() {
			if res := core.NewSimulator(prog, cfg).Run(trace); res.Completed != n {
				t.Fatalf("completed %d of %d", res.Completed, n)
			}
		}) / n
	}
	plain, recorded := perPkt(false), perPkt(true)
	if extra := recorded - plain; extra > 0.5 {
		t.Fatalf("recording costs %.3f allocations per packet (%.3f recorded, %.3f plain), want <= 0.5", extra, recorded, plain)
	}
}
