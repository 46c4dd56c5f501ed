package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"mp5/internal/banzai"
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

// wastedVisitSrc guards a read-modify-write with a predicate computed from
// state, which resolution cannot decide: every packet takes a conservative
// visit to cnt's stage, and two in three of them access nothing there.
const wastedVisitSrc = `
struct Packet { int a; int seq; };
int flag [1] = {0};
int cnt [16] = {0};
void f (struct Packet p) {
    flag[0] = flag[0] + 1;
    p.seq = flag[0];
    if (p.seq % 3 == 0) {
        cnt[p.a % 16] = cnt[p.a % 16] + 1;
    }
}
`

// accessOrderRun simulates src on arch with random a and b fields (those
// the program has), fails the test on loss or when the EvAccess stream
// disagrees with the recorded access order, and returns the run and the C1
// verdict on its recorded order.
func accessOrderRun(t *testing.T, src string, arch core.Arch) (*core.Result, *equiv.Report) {
	t.Helper()
	prog := compileMP5(t, src)
	tr := lineRateTrace(prog, 6000, 4, 11)
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"a", "b"} {
		if f := prog.FieldIndex(name); f >= 0 {
			for i := range tr {
				tr[i].Fields[f] = int64(rng.Intn(1024))
			}
		}
	}
	events := banzai.NewAccessLog(prog)
	sim := core.NewSimulator(prog, core.Config{
		Arch: arch, Pipelines: 4, Seed: 1, RecordOutputs: true, RecordAccessOrder: true,
		Trace: func(e core.Event) {
			if e.Kind == core.EvAccess {
				events.Append(e.Reg, e.Idx, e.PktID)
			}
		},
	})
	res := sim.Run(tr)
	if res.Completed != res.Injected {
		t.Fatalf("%v: loss (%d of %d)", arch, res.Completed, res.Injected)
	}
	order := sim.AccessOrders()
	if !reflect.DeepEqual(events.Map(), order) {
		t.Fatalf("%v: EvAccess stream and recorded access order differ", arch)
	}
	return res, equiv.Run(prog, tr).Verify(sim.FinalRegs(), sim.Outputs(), order)
}

// TestAccessEventsMatchReference: with D4 on, the recorded access order (and
// the EvAccess stream it is emitted with) must equal the single-pipeline
// reference order exactly, slot by slot — including on a program whose
// conservative visits are mostly wasted, where a log of resolved accesses
// would list packets that never touched the slot.
func TestAccessEventsMatchReference(t *testing.T) {
	for _, arch := range []core.Arch{core.ArchMP5, core.ArchIdeal, core.ArchNaive} {
		if _, rep := accessOrderRun(t, accessOrderSrc, arch); !rep.Equivalent {
			t.Fatalf("%v: %s", arch, rep)
		}
		res, rep := accessOrderRun(t, wastedVisitSrc, arch)
		if !rep.Equivalent {
			t.Fatalf("%v, wasted visits: %s", arch, rep)
		}
		if arch == core.ArchMP5 && res.WastedVisits == 0 {
			t.Fatalf("%v: program wasted no visits", arch)
		}
	}
}

// TestAccessEventsExposeNoD4: with D4 ablated the same workload must show
// order divergence in the recorded order — otherwise the oracle could never
// falsify anything.
func TestAccessEventsExposeNoD4(t *testing.T) {
	if _, rep := accessOrderRun(t, accessOrderSrc, core.ArchMP5NoD4); len(rep.Order) == 0 {
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
