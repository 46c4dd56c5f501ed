package banzai

import (
	"math"
	"reflect"
	"testing"

	"mp5/internal/compiler"
	"mp5/internal/ir"
)

func TestRegFileInitAndAccess(t *testing.T) {
	prog := &ir.Program{
		Fields: []string{"x"},
		Regs: []ir.RegInfo{
			{Name: "a", Size: 3, Init: []int64{5}},
			{Name: "b", Size: 4, Init: []int64{1, 2}},
		},
	}
	rf := NewRegFile(prog)
	for i := 0; i < 3; i++ {
		if rf.ReadReg(0, i) != 5 {
			t.Errorf("a[%d] = %d, want 5 (fill rule)", i, rf.ReadReg(0, i))
		}
	}
	want := []int64{1, 2, 0, 0}
	for i, w := range want {
		if rf.ReadReg(1, i) != w {
			t.Errorf("b[%d] = %d, want %d", i, rf.ReadReg(1, i), w)
		}
	}
	rf.WriteReg(1, 6, 9) // clamps to index 2
	if rf.ReadReg(1, 2) != 9 {
		t.Error("clamped write missed")
	}
	snap := rf.Snapshot()
	rf.WriteReg(0, 0, 100)
	if snap[0][0] != 5 {
		t.Error("snapshot aliases live storage")
	}
}

const seqSrc = `
struct Packet { int seq; };
int count [1] = {0};
void counter (struct Packet p) {
    count[0] = count[0] + 1;
    p.seq = count[0];
}
`

func TestMachineSerialSemantics(t *testing.T) {
	prog, err := compiler.Compile(seqSrc, compiler.Options{Target: compiler.TargetMP5})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog)
	m.RecordIndexedAccesses()
	seqField := prog.FieldIndex("seq")
	for i := 0; i < 10; i++ {
		env := ir.NewEnv(prog)
		m.Process(int64(i), env)
		if env.Fields[seqField] != int64(i+1) {
			t.Fatalf("packet %d stamped %d", i, env.Fields[seqField])
		}
	}
	if got := m.Regs().Array(0)[0]; got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	log := m.IndexedAccessLog()[AccessKey(0, 0)]
	if len(log) != 10 {
		t.Fatalf("access log has %d entries", len(log))
	}
	for i, id := range log {
		if id != int64(i) {
			t.Fatalf("access order %v not serial", log)
		}
	}
}

// TestAccessLogHonoursPredicates: a predicated-off register op must not be
// logged as an access (the log defines the C1 reference order).
func TestAccessLogHonoursPredicates(t *testing.T) {
	src := `
struct Packet { int x; };
int r [4] = {0};
void f (struct Packet p) {
    if (p.x > 10) {
        r[p.x % 4] = p.x;
    }
}
`
	prog, err := compiler.Compile(src, compiler.Options{Target: compiler.TargetMP5})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog)
	m.RecordIndexedAccesses()
	for i, x := range []int64{5, 20, 7, 30} {
		env := ir.NewEnv(prog)
		env.Fields[0] = x
		m.Process(int64(i), env)
	}
	// Only packets 1 (x=20, slot 0) and 3 (x=30, slot 2) pass the predicate.
	want := map[string][]int64{AccessKey(0, 0): {1}, AccessKey(0, 2): {3}}
	if log := m.IndexedAccessLog(); !reflect.DeepEqual(log, want) {
		t.Fatalf("access log = %v, want %v (only predicate-true packets)", log, want)
	}
}

// TestIndexedAccessLog: keys carry the clamped index, predicated-off ops
// are skipped, and every slot's sequence is strictly ascending (serial
// machine = arrival order).
func TestIndexedAccessLog(t *testing.T) {
	src := `
struct Packet { int x; };
int r [4] = {0};
void f (struct Packet p) {
    if (p.x > 10) {
        r[p.x % 4] = r[p.x % 4] + 1;
    }
}
`
	prog, err := compiler.Compile(src, compiler.Options{Target: compiler.TargetMP5})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog)
	m.RecordIndexedAccesses()
	// x values: packets 1 (x=21, slot 1), 3 (x=30, slot 2), 4 (x=25,
	// slot 1); packets 0 and 2 are predicated off.
	for i, x := range []int64{5, 21, 7, 30, 25} {
		env := ir.NewEnv(prog)
		env.Fields[0] = x
		m.Process(int64(i), env)
	}
	log := m.IndexedAccessLog()
	want := map[string][]int64{
		AccessKey(0, 1): {1, 4},
		AccessKey(0, 2): {3},
	}
	if len(log) != len(want) {
		t.Fatalf("log keys %v, want %v", log, want)
	}
	for k, seq := range want {
		got := log[k]
		if len(got) != len(seq) {
			t.Fatalf("%s = %v, want %v", k, got, seq)
		}
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("%s = %v, want %v", k, got, seq)
			}
		}
	}
}

func TestMachineString(t *testing.T) {
	prog, _ := compiler.Compile(seqSrc, compiler.Options{Target: compiler.TargetBanzai})
	m := NewMachine(prog)
	if m.String() == "" || m.Program() != prog {
		t.Error("accessors broken")
	}
}

// TestRunBatch exercises the batch helper.
func TestRunBatch(t *testing.T) {
	prog, _ := compiler.Compile(seqSrc, compiler.Options{Target: compiler.TargetBanzai})
	m := NewMachine(prog)
	envs := make([]*ir.Env, 5)
	for i := range envs {
		envs[i] = ir.NewEnv(prog)
	}
	m.Run(envs)
	if m.Regs().Array(0)[0] != 5 {
		t.Fatalf("count = %d", m.Regs().Array(0)[0])
	}
}

// TestAccessKeyFormat pins the "r<reg>[<idx>]" state name every per-slot
// order map and the JSONL event stream share.
func TestAccessKeyFormat(t *testing.T) {
	for _, c := range []struct {
		reg, idx int
		want     string
	}{
		{0, 0, "r0[0]"},
		{3, 17, "r3[17]"},
		{12, 511, "r12[511]"},
		{1, -1, "r1[-1]"},
		{-2, -40, "r-2[-40]"},
		{7, 1 << 40, "r7[1099511627776]"},
		{math.MaxInt64, math.MinInt64, "r9223372036854775807[-9223372036854775808]"},
	} {
		if got := AccessKey(c.reg, c.idx); got != c.want {
			t.Errorf("AccessKey(%d, %d) = %q, want %q", c.reg, c.idx, got, c.want)
		}
	}
}
