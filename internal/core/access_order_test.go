package core_test

import (
	"math/rand"
	"testing"

	"mp5/internal/core"
	"mp5/internal/equiv"
)

// accessOrderSrc contends on two register arrays with data-dependent
// indices and a branch-guarded read-modify-write, so both the dedupe logic
// and predicate handling of the EvAccess path are exercised.
const accessOrderSrc = `
struct Packet { int a; int b; int seq; };
int gate [64] = {0};
int count [4] = {0};
void f (struct Packet p) {
    gate[p.a % 64] = gate[p.a % 64] + 1;
    if (p.b % 2 == 1) {
        count[p.b % 4] = count[p.b % 4] + 1;
        p.seq = count[p.b % 4];
    }
}
`

// accessOrderRun simulates accessOrderSrc on arch, fails the test on loss,
// and returns the C1 verdict on the run, with the observed per-slot access
// order reconstructed from EvAccess events.
func accessOrderRun(t *testing.T, arch core.Arch) *equiv.Report {
	t.Helper()
	prog := compileMP5(t, accessOrderSrc)
	tr := lineRateTrace(prog, 6000, 4, 11)
	rng := rand.New(rand.NewSource(7))
	a, b := prog.FieldIndex("a"), prog.FieldIndex("b")
	for i := range tr {
		tr[i].Fields[a] = int64(rng.Intn(1024))
		tr[i].Fields[b] = int64(rng.Intn(1024))
	}
	order := equiv.NewOrderLog()
	sim := core.NewSimulator(prog, core.Config{
		Arch: arch, Pipelines: 4, Seed: 1, RecordOutputs: true,
		Trace: order.Hook(),
	})
	res := sim.Run(tr)
	if res.Completed != res.Injected {
		t.Fatalf("%v: loss (%d of %d)", arch, res.Completed, res.Injected)
	}
	return equiv.Run(prog, tr).Verify(sim.FinalRegs(), sim.Outputs(), order.Order())
}

// TestAccessEventsMatchReference: on MP5 (D4 on) the access order
// reconstructed from EvAccess events must equal the single-pipeline
// reference order exactly, slot by slot — the event stream is a faithful C1
// witness.
func TestAccessEventsMatchReference(t *testing.T) {
	for _, arch := range []core.Arch{core.ArchMP5, core.ArchIdeal, core.ArchNaive} {
		if rep := accessOrderRun(t, arch); !rep.Equivalent {
			t.Fatalf("%v: %s", arch, rep)
		}
	}
}

// TestAccessEventsExposeNoD4: with D4 ablated the same workload must show
// order divergence in the EvAccess stream — otherwise the oracle could
// never falsify anything.
func TestAccessEventsExposeNoD4(t *testing.T) {
	if rep := accessOrderRun(t, core.ArchMP5NoD4); len(rep.Order) == 0 {
		t.Fatal("no-D4 run reproduced the reference order; oracle is blind")
	}
}

// TestAccessEventsDeduped: a packet touching one slot several times within
// one stage execution (read + write of a read-modify-write) emits exactly
// one EvAccess for it.
func TestAccessEventsDeduped(t *testing.T) {
	prog := compileMP5(t, accessOrderSrc)
	tr := lineRateTrace(prog, 100, 2, 3)
	type visit struct {
		pkt   int64
		stage int
		reg   int
		idx   int
	}
	seen := map[visit]int{}
	sim := core.NewSimulator(prog, core.Config{
		Arch: core.ArchMP5, Pipelines: 2,
		Trace: func(e core.Event) {
			if e.Kind == core.EvAccess {
				seen[visit{e.PktID, e.Stage, e.Reg, e.Idx}]++
			}
		},
	})
	sim.Run(tr)
	if len(seen) == 0 {
		t.Fatal("no access events")
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("packet %d stage %d r%d[%d]: %d events, want 1", v.pkt, v.stage, v.reg, v.idx, n)
		}
	}
}
