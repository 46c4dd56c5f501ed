package equiv_test

import (
	"math/rand"
	"strings"
	"testing"

	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/equiv"
	"mp5/internal/ir"
)

const seqSrc = `
struct Packet { int seq; };
int count [1] = {0};
void counter (struct Packet p) {
    count[0] = count[0] + 1;
    p.seq = count[0];
}
`

func trace(prog *ir.Program, n, k int) []core.Arrival {
	arr := make([]core.Arrival, n)
	for i := range arr {
		arr[i] = core.Arrival{
			Cycle:  int64(i / k),
			Port:   i % 16,
			Size:   64,
			Fields: make([]int64, len(prog.Fields)),
		}
	}
	return arr
}

func TestReferenceSequencer(t *testing.T) {
	prog := compiler.MustCompile(seqSrc, compiler.Options{Target: compiler.TargetMP5})
	tr := trace(prog, 50, 4)
	regs, outs := equiv.Reference(prog, tr)
	if regs[0][0] != 50 {
		t.Fatalf("count = %d", regs[0][0])
	}
	seq := prog.FieldIndex("seq")
	for i := 0; i < 50; i++ {
		if outs[int64(i)][seq] != int64(i+1) {
			t.Fatalf("packet %d stamped %d", i, outs[int64(i)][seq])
		}
	}
}

func TestCheckDetectsEquivalence(t *testing.T) {
	prog := compiler.MustCompile(seqSrc, compiler.Options{Target: compiler.TargetMP5})
	tr := trace(prog, 200, 4)
	sim := core.NewSimulator(prog, core.Config{
		Arch: core.ArchMP5, Pipelines: 4, RecordOutputs: true,
	})
	if res := sim.Run(tr); res.Completed != res.Injected {
		t.Fatalf("loss: %+v", res)
	}
	rep := equiv.Check(prog, sim, tr)
	if !rep.Equivalent {
		t.Fatalf("MP5 should be equivalent: %v", rep.Mismatches)
	}
	if rep.PacketsCompared != 200 {
		t.Errorf("compared %d packets", rep.PacketsCompared)
	}
}

// gateSeqSrc makes no-D4 misorderings observable: packets are delayed
// differently at the first stateful stage (64 gate counters spread across
// pipelines), so they reach the second stage's hot sequence counters out of
// arrival order, and the stamped sequence numbers expose it. A single
// shared state would not do: every packet funnels through one FIFO in
// arrival order, so no-D4 is accidentally order-correct there.
const gateSeqSrc = `
struct Packet { int a; int b; int seq; };
int gate [64] = {0};
int count [4] = {0};
void f (struct Packet p) {
    gate[p.a % 64] = gate[p.a % 64] + 1;
    count[p.b % 4] = count[p.b % 4] + 1;
    p.seq = count[p.b % 4];
}
`

func TestCheckDetectsViolation(t *testing.T) {
	// The no-D4 architecture on a sequencer-style program must produce
	// packet-state mismatches under contention.
	prog := compiler.MustCompile(gateSeqSrc, compiler.Options{Target: compiler.TargetMP5})
	tr := trace(prog, 8000, 4)
	rng := rand.New(rand.NewSource(3))
	for i := range tr {
		tr[i].Fields[prog.FieldIndex("a")] = int64(rng.Intn(1024))
		tr[i].Fields[prog.FieldIndex("b")] = int64(rng.Intn(1024))
	}
	sim := core.NewSimulator(prog, core.Config{
		Arch: core.ArchMP5NoD4, Pipelines: 4, RecordOutputs: true, RecordAccessOrder: true,
	})
	res := sim.Run(tr)
	if res.Completed != res.Injected {
		t.Fatalf("loss: %+v", res)
	}
	rep := equiv.Check(prog, sim, tr)
	if rep.Equivalent {
		t.Fatal("no-D4 sequencer at 4x contention cannot be equivalent")
	}
	if len(rep.Mismatches) == 0 || len(rep.Mismatches) > equiv.Limit {
		t.Fatalf("mismatch recording broken: %d", len(rep.Mismatches))
	}
	if s := rep.Mismatches[0].String(); !strings.Contains(s, "reference=") {
		t.Errorf("mismatch rendering: %q", s)
	}
	if res.C1Violating == 0 {
		t.Error("no-D4 sequencer at 4x contention counted no C1-violating packets")
	}
}

// TestMismatchGolden pins the renderings of Mismatch and Report: failure
// output is parsed by eyeballs and scripts alike, so it must stay stable.
func TestMismatchGolden(t *testing.T) {
	reg := equiv.Mismatch{Kind: "register", Reg: 2, Idx: 7, Want: 5, Got: 9}
	if got, want := reg.String(), "register r2[7]: reference=5 simulated=9"; got != want {
		t.Errorf("register mismatch renders %q, want %q", got, want)
	}
	pkt := equiv.Mismatch{Kind: "packet", PktID: 31, Field: 1, Want: -4, Got: 0}
	if got, want := pkt.String(), "packet 31 field 1: reference=-4 simulated=0"; got != want {
		t.Errorf("packet mismatch renders %q, want %q", got, want)
	}

	ok := &equiv.Report{Equivalent: true, PacketsCompared: 12}
	if got, want := ok.String(), "equivalent (12 packets compared)"; got != want {
		t.Errorf("passing report renders %q, want %q", got, want)
	}
	bad := &equiv.Report{
		Mismatches:      []equiv.Mismatch{reg, pkt},
		Total:           40,
		PacketsCompared: 12,
	}
	want := "NOT equivalent: 40 mismatches (12 packets compared)\n" +
		"  register r2[7]: reference=5 simulated=9\n" +
		"  packet 31 field 1: reference=-4 simulated=0\n" +
		"  ... and 38 more"
	if got := bad.String(); got != want {
		t.Errorf("failing report renders:\n%q\nwant:\n%q", got, want)
	}
}

// TestForcedMismatchDetected guards against a silently-always-passing
// checker: corrupt one register after a clean run and Check must flag
// exactly that slot.
func TestForcedMismatchDetected(t *testing.T) {
	prog := compiler.MustCompile(seqSrc, compiler.Options{Target: compiler.TargetMP5})
	tr := trace(prog, 50, 4)
	sim := core.NewSimulator(prog, core.Config{
		Arch: core.ArchMP5, Pipelines: 4, RecordOutputs: true,
	})
	if res := sim.Run(tr); res.Completed != res.Injected {
		t.Fatalf("loss: %+v", res)
	}
	if rep := equiv.Check(prog, sim, tr); !rep.Equivalent {
		t.Fatalf("clean run not equivalent: %v", rep.Mismatches)
	}
	seq := prog.FieldIndex("seq")
	sim.Outputs()[7][seq] += 100 // live storage: corrupt packet 7's stamp
	rep := equiv.Check(prog, sim, tr)
	if rep.Equivalent {
		t.Fatal("corrupted packet output passed the checker")
	}
	if rep.Total != 1 || len(rep.Mismatches) != 1 {
		t.Fatalf("expected exactly one mismatch, got total=%d recorded=%d", rep.Total, len(rep.Mismatches))
	}
	m := rep.Mismatches[0]
	if m.Kind != "packet" || m.PktID != 7 || m.Field != seq || m.Got != m.Want+100 {
		t.Fatalf("mismatch mislocated: %+v", m)
	}
}

// TestCheckReportsAllMismatchesUpToCap: a systematic divergence must be
// counted in full (Total) while the recorded list stops at Limit, in
// deterministic ascending packet order.
func TestCheckReportsAllMismatchesUpToCap(t *testing.T) {
	prog := compiler.MustCompile(gateSeqSrc, compiler.Options{Target: compiler.TargetMP5})
	tr := trace(prog, 8000, 4)
	rng := rand.New(rand.NewSource(3))
	for i := range tr {
		tr[i].Fields[prog.FieldIndex("a")] = int64(rng.Intn(1024))
		tr[i].Fields[prog.FieldIndex("b")] = int64(rng.Intn(1024))
	}
	sim := core.NewSimulator(prog, core.Config{
		Arch: core.ArchMP5NoD4, Pipelines: 4, RecordOutputs: true,
	})
	if res := sim.Run(tr); res.Completed != res.Injected {
		t.Fatalf("loss: %+v", res)
	}
	rep := equiv.Check(prog, sim, tr)
	if rep.Equivalent {
		t.Fatal("no-D4 at 4x contention cannot be equivalent")
	}
	if len(rep.Mismatches) != equiv.Limit {
		t.Fatalf("recorded %d mismatches, want the cap %d", len(rep.Mismatches), equiv.Limit)
	}
	if rep.Total <= equiv.Limit {
		t.Fatalf("Total = %d, want more than the cap (mismatches beyond it must still count)", rep.Total)
	}
	// Determinism: recorded packet mismatches come in ascending id order,
	// and a re-run reproduces the identical report.
	lastID := int64(-1)
	for _, m := range rep.Mismatches {
		if m.Kind != "packet" {
			continue
		}
		if m.PktID < lastID {
			t.Fatalf("mismatch order not ascending: %d after %d", m.PktID, lastID)
		}
		lastID = m.PktID
	}
	again := equiv.Check(prog, sim, tr)
	if again.String() != rep.String() {
		t.Fatal("Check is not deterministic across runs")
	}
}

func TestCheckPanicsWithoutOutputs(t *testing.T) {
	prog := compiler.MustCompile(seqSrc, compiler.Options{Target: compiler.TargetMP5})
	tr := trace(prog, 10, 2)
	sim := core.NewSimulator(prog, core.Config{Arch: core.ArchMP5, Pipelines: 2})
	sim.Run(tr)
	defer func() {
		if recover() == nil {
			t.Fatal("Check must panic when outputs were not recorded")
		}
	}()
	equiv.Check(prog, sim, tr)
}
