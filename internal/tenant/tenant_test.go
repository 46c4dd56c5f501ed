package tenant

import (
	"strings"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/workload"
)

func TestRegistryAddAndLookup(t *testing.T) {
	prog, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewMulti(dataplane.Config{Workers: 1})
	r := NewRegistry(eng)
	a, err := r.Add("alpha", prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Add("beta", prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != 0 || b.ID() != 1 {
		t.Fatalf("wire ids not dense: %d, %d", a.ID(), b.ID())
	}
	if r.ByID(0) != a || r.ByID(1) != b || r.ByID(2) != nil {
		t.Fatal("ByID lookup wrong")
	}
	if r.ByName("alpha") != a || r.ByName("nope") != nil {
		t.Fatal("ByName lookup wrong")
	}
	if got := r.Tenants(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Tenants snapshot wrong: %v", got)
	}
	if a.Quota() != nil {
		t.Fatal("unlimited tenant got a quota")
	}
	if b.Quota() == nil || b.Quota().Cap() != 32 {
		t.Fatal("quota tenant's quota wrong")
	}
	if v := a.Active(); v == nil || v.Seq != 1 || v.Prog != prog || v.Handle == nil {
		t.Fatalf("active version wrong: %+v", v)
	}
	if _, err := r.Add("alpha", prog, 0); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := r.Add("", prog, 0); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestSwapRejectsFieldCountChange(t *testing.T) {
	progA, err := apps.Synthetic(2, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := apps.Synthetic(3, 16, 16) // one more header field
	if err != nil {
		t.Fatal(err)
	}
	if len(progA.Fields) == len(progB.Fields) {
		t.Fatalf("test wants distinct field counts, got %d and %d", len(progA.Fields), len(progB.Fields))
	}
	eng := dataplane.NewMulti(dataplane.Config{Workers: 1})
	r := NewRegistry(eng)
	if _, err := r.Add("alpha", progA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("alpha", progB); err == nil || !strings.Contains(err.Error(), "field count") {
		t.Fatalf("field-count-changing swap not rejected: %v", err)
	}
	if _, err := r.Swap("ghost", progA); err == nil {
		t.Fatal("swap of unknown tenant accepted")
	}
}

// TestSwapUnderLoad is the registry-level zero-downtime proof: traffic
// flows on v1, Swap flips to v2 mid-stream with no drain, traffic continues
// on v2 — and each version independently matches its own single-pipeline
// reference (state, outputs, C1 access order), with in-flight v1 packets
// finishing on v1's registers.
func TestSwapUnderLoad(t *testing.T) {
	progA, err := apps.Synthetic(3, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := apps.Synthetic(3, 64, 16) // same field count, different sharding shape
	if err != nil {
		t.Fatal(err)
	}
	if len(progA.Fields) != len(progB.Fields) {
		t.Fatalf("test wants equal field counts, got %d vs %d", len(progA.Fields), len(progB.Fields))
	}
	arrsA := workload.Synthetic(progA, workload.Spec{Packets: 700, Pipelines: 4, Seed: 31}, 3, 32)
	arrsB := workload.Synthetic(progB, workload.Spec{Packets: 700, Pipelines: 4, Seed: 32}, 3, 64)
	eng := dataplane.NewMulti(dataplane.Config{Workers: 4, Window: 64, RecordOutputs: true, RecordAccessOrder: true})
	r := NewRegistry(eng)
	tn, err := r.Add("alpha", progA, 48)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	v1 := tn.Active()
	// Both phases submit the way the daemon does: snapshot the active
	// version once per run, SubmitBatchTo its handle, and (closed-loop)
	// retry any quota-shed tail — off only advances by what was admitted,
	// so admission order stays the arrival order.
	off := 0
	for off < len(arrsA) {
		v := tn.Active()
		end := min(off+53, len(arrsA))
		got := eng.SubmitBatchTo(v.Handle, arrsA[off:end], nil, nil)
		off += got
		if got == 0 {
			time.Sleep(100 * time.Microsecond) // quota full: wait for egress
		}
	}
	// The flip: no drain, no pause. In-flight v1 packets keep running.
	v2, err := r.Swap("alpha", progB)
	if err != nil {
		t.Fatal(err)
	}
	if tn.Active() != v2 || v2.Seq != 2 {
		t.Fatalf("active version did not flip: %+v", tn.Active())
	}
	// Phase 2: v2 traffic through the same snapshot discipline.
	off = 0
	for off < len(arrsB) {
		v := tn.Active()
		if v != v2 {
			t.Fatal("active version regressed")
		}
		end := min(off+53, len(arrsB))
		got := eng.SubmitBatchTo(v.Handle, arrsB[off:end], nil, nil)
		off += got
		if got == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	res := eng.Drain()
	if res.Stalled || res.Completed != int64(len(arrsA)+len(arrsB)) {
		t.Fatalf("%d of %d completed (stalled=%v)", res.Completed, len(arrsA)+len(arrsB), res.Stalled)
	}
	// Each version against its own reference: the C1 contract holds within
	// each version.
	for _, c := range []struct {
		v    *Version
		prog *ir.Program
		arrs []core.Arrival
	}{{v1, progA, arrsA}, {v2, progB, arrsB}} {
		h := c.v.Handle
		if rep := equiv.Run(c.prog, c.arrs).Verify(eng.FinalRegsFor(h), eng.OutputsFor(h), eng.AccessOrdersFor(h)); !rep.Equivalent {
			t.Fatalf("v%d not equivalent to its reference:\n%s", c.v.Seq, rep)
		}
	}
	// The quota is shared across versions and fully returned after drain.
	if got := tn.Quota().InUse(); got != 0 {
		t.Fatalf("quota leaked %d tokens across the swap", got)
	}
	if vs := tn.Versions(); len(vs) != 2 || vs[0] != v1 || vs[1] != v2 {
		t.Fatalf("version history wrong: %v", vs)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		bad  string // non-empty = expect an error containing this
	}{
		{in: "alpha=prog.dm", want: Spec{Name: "alpha", File: "prog.dm"}},
		{in: "alpha=prog.dm@64", want: Spec{Name: "alpha", File: "prog.dm", Quota: 64}},
		{in: "a=dir@x/p.dm@8", want: Spec{Name: "a", File: "dir@x/p.dm", Quota: 8}},
		{in: "noequals", bad: "want NAME=FILE"},
		{in: "=prog.dm", bad: "empty tenant name"},
		{in: "alpha=", bad: "empty program file"},
		{in: "alpha=p.dm@zero", bad: "not a positive integer"},
		{in: "alpha=p.dm@0", bad: "not a positive integer"},
		{in: "alpha=p.dm@-3", bad: "not a positive integer"},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.bad != "" {
			if err == nil || !strings.Contains(err.Error(), c.bad) {
				t.Fatalf("ParseSpec(%q): want error containing %q, got %v", c.in, c.bad, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestValidateSpecs(t *testing.T) {
	ok := []Spec{{Name: "a", File: "a.dm", Quota: 16}, {Name: "b", File: "b.dm"}}
	if err := ValidateSpecs(ok, 256); err != nil {
		t.Fatalf("valid specs rejected: %v", err)
	}
	dup := []Spec{{Name: "a", File: "a.dm"}, {Name: "a", File: "b.dm"}}
	if err := ValidateSpecs(dup, 256); err == nil || !strings.Contains(err.Error(), "duplicate tenant name") {
		t.Fatalf("duplicate names not rejected: %v", err)
	}
	wide := []Spec{{Name: "a", File: "a.dm", Quota: 256}}
	if err := ValidateSpecs(wide, 256); err == nil || !strings.Contains(err.Error(), "never bind") {
		t.Fatalf("window-wide quota not rejected: %v", err)
	}
}
