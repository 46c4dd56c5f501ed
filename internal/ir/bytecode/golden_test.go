// The golden tests live in an external test package: they compile Domino
// sources through internal/compiler (whose package graph reaches back to
// this package via the engines), which an in-package test would turn into
// an import cycle.
package bytecode_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// edgeSource is a hand-written stress program for codegen review: a
// guarded read-modify-write, a data-dependent register index computed
// from prior state, and a second guarded RMW keyed off the first — the
// three shapes most likely to regress in the predicate, fusion and
// operand-resolution parts of the compiler.
const edgeSource = `
#define SLOTS 32

struct Packet {
    int key;
    int delta;
    int i;
    int cur;
    int j;
    int out;
};

int bucket [SLOTS] = {0};
int spill [SLOTS] = {0};

void edge (struct Packet p) {
    p.i = p.key % SLOTS;
    p.cur = bucket[p.i];
    if (p.cur + p.delta > 100) {
        bucket[p.i] = 0;
    } else {
        bucket[p.i] = p.cur + p.delta;
    }
    p.j = (p.cur + p.key) % SLOTS;
    if (p.cur != 0) {
        spill[p.j] = spill[p.j] + p.cur;
    }
    p.out = p.cur;
}
`

// goldenTargets lists every golden listing: the paper's four apps
// compiled for the MP5 multi-pipeline target, plus the edge-case program
// in both its MP5 form and its single-pipeline (recirculation) Banzai
// form, which keeps resolution and stateful code in one listing.
func goldenTargets(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, app := range apps.All() {
		out[app.Name+"_mp5.disasm"] = app.Source
	}
	out["edge_mp5.disasm"] = edgeSource
	return out
}

func TestGoldenDisasm(t *testing.T) {
	cases := goldenTargets(t)
	for name, src := range cases {
		target := compiler.TargetMP5
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, src, target)
		})
	}
	t.Run("edge_banzai.disasm", func(t *testing.T) {
		checkGolden(t, "edge_banzai.disasm", edgeSource, compiler.TargetBanzai)
	})
}

func checkGolden(t *testing.T, name, src string, target compiler.Target) {
	t.Helper()
	prog, err := compiler.Compile(src, compiler.Options{Target: target})
	if err != nil {
		t.Fatalf("compile source: %v", err)
	}
	bp, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatalf("compile bytecode: %v", err)
	}
	got := bytecode.Disasm(bp)
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("disassembly drifted from %s (run with -update and review the diff):\n--- got ---\n%s", path, got)
	}
}

// TestEdgeProgramRuns sanity-checks that the edge-case program executes
// under the VM (both targets) without error and with the documented
// semantics: the guarded RMW only fires when its predicate holds.
func TestEdgeProgramRuns(t *testing.T) {
	for _, target := range []compiler.Target{compiler.TargetBanzai, compiler.TargetMP5} {
		prog, err := compiler.Compile(edgeSource, compiler.Options{Target: target})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		bp := bytecode.MustCompile(prog)
		vm := bytecode.NewVM(bp)
		env := ir.NewEnv(prog)
		env.Fields[prog.FieldIndex("key")] = 5
		env.Fields[prog.FieldIndex("delta")] = 3
		regs := ir.NewRegFile(prog)
		for si := range bp.Stages {
			if err := vm.ExecStage(&bp.Stages[si], env, regs); err != nil {
				t.Fatalf("stage %d: %v", si, err)
			}
		}
		if got := regs.ReadReg(0, 5); got != 3 {
			t.Errorf("target %v: bucket[5] = %d, want 3", target, got)
		}
	}
}
