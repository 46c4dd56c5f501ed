package fuzz

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"mp5/internal/compiler"
	"mp5/internal/core"
)

// TestGeneratorCompiles: every generated program must compile for the MP5
// target — the generator's contract. Doubles as a coverage check that the
// whole feature surface (guards, else branches, ternaries, builtins,
// tables, data-dependent indices) appears across seeds.
func TestGeneratorCompiles(t *testing.T) {
	features := map[string]bool{
		"if (": false, "else": false, "?": false, "hash2(": false,
		"max(": false, "min(": false, "t0 (2)": false, "%": false,
	}
	for seed := int64(0); seed < 300; seed++ {
		src := Generate(seed, int(seed%8)+1)
		if _, err := compiler.Compile(src, compiler.Options{Target: compiler.TargetMP5}); err != nil {
			t.Fatalf("seed %d does not compile: %v\n%s", seed, err, src)
		}
		for f := range features {
			if strings.Contains(src, f) {
				features[f] = true
			}
		}
	}
	for f, seen := range features {
		if !seen {
			t.Errorf("no generated program used %q in 300 seeds", f)
		}
	}
}

// TestGeneratorDeterministic: same (seed, size) → same source.
func TestGeneratorDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		if Generate(seed, 3) != Generate(seed, 3) {
			t.Fatalf("seed %d not deterministic", seed)
		}
	}
}

// smokeCases returns the deterministic case list for the smoke run; the
// count is env-overridable (MP5_FUZZ_CASES) so `make fuzz-smoke` can run a
// longer sweep without code changes.
func smokeCases(t testing.TB) []*Case {
	n := 25
	if v := os.Getenv("MP5_FUZZ_CASES"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			t.Fatalf("bad MP5_FUZZ_CASES=%q", v)
		}
		n = p
	}
	cases := make([]*Case, n)
	for i := range cases {
		s := int64(i)
		cases[i] = &Case{
			ProgSeed: s*7919 + 1, Size: i%8 + 1,
			WorkSeed: s*104729 + 3, Packets: 300 + i%5*100,
			Pipelines: []int{2, 4, 8}[i%3],
		}
	}
	return cases
}

// smokeEngine reads the MP5_FUZZ_ENGINE engine filter for the smoke gate:
// empty sweeps everything, an Engine* name restricts the run to that engine
// family (check.sh uses "screp" for the replication-only leg).
func smokeEngine(t testing.TB) string {
	engine := os.Getenv("MP5_FUZZ_ENGINE")
	switch engine {
	case "", EngineCore, EngineBytecode,
		EngineDataplane, EngineMultiTenant, EngineScrep:
	default:
		t.Fatalf("bad MP5_FUZZ_ENGINE=%q", engine)
	}
	return engine
}

// TestDifferentialSmoke is the bounded deterministic gate wired into
// scripts/check.sh: every smoke case must match the single-pipeline
// reference on all order-preserving architectures, the cross-latency leg,
// and the concurrent dataplane and replication engines at every
// DataplaneWorkers count — on state, packet outputs, and C1 access order.
func TestDifferentialSmoke(t *testing.T) {
	engine := smokeEngine(t)
	for i, c := range smokeCases(t) {
		fails := RunEngines(c, OrderPreserving, engine)
		for _, f := range fails {
			t.Errorf("case %d (progSeed=%d workSeed=%d): %v", i, c.ProgSeed, c.WorkSeed, f)
		}
		if t.Failed() {
			t.Fatalf("program:\n%s", c.SourceText())
		}
	}
}

// TestHarnessDetectsNoD4: run the ablation that deliberately violates C1
// through the full pipeline — detect, shrink, and verify the minimized
// case still names the violated register and the order divergence. This is
// the harness's own falsifiability test: if it ever passes no-D4, the
// oracle has gone blind.
func TestHarnessDetectsNoD4(t *testing.T) {
	var c *Case
	var orig *Failure
	// Scan a few seeds for a case the ablation fails on; contention-heavy
	// workloads make this land within a handful of attempts.
	for s := int64(0); s < 30 && orig == nil; s++ {
		cand := &Case{
			ProgSeed: s + 1, Size: int(s%8) + 1,
			WorkSeed: s*31 + 7, Packets: 1500, Pipelines: 4,
		}
		for _, f := range Run(cand, []core.Arch{core.ArchMP5NoD4}) {
			if f.Reason == "order" {
				c, orig = cand, f
				break
			}
		}
	}
	if orig == nil {
		t.Fatal("no-D4 survived 30 generated cases; the order oracle is blind")
	}
	min, f := Shrink(c, core.ArchMP5NoD4, 80)
	if f == nil {
		t.Fatal("shrink lost the failure")
	}
	if min.Packets > c.Packets {
		t.Errorf("shrink grew the trace: %d > %d", min.Packets, c.Packets)
	}
	if min.Source == "" {
		t.Error("shrink did not pin the minimized program")
	}
	if f.Reason != "order" && f.Reason != "state" {
		t.Errorf("minimized failure reason %q", f.Reason)
	}
	if f.Reason == "order" {
		if len(f.Report.Order) == 0 {
			t.Fatal("order failure carries no divergence")
		}
		d := f.Report.Order[0]
		if !strings.HasPrefix(d.State, "r") || !strings.Contains(d.State, "[") {
			t.Errorf("divergence does not name a register slot: %q", d.State)
		}
		if d.Want == d.Got {
			t.Errorf("divergence %v is not a divergence", d)
		}
		if !strings.Contains(f.String(), d.State) {
			t.Errorf("failure rendering omits the register: %s", f)
		}
	}
	t.Logf("minimized: %d packets, program:\n%s\nfailure: %v", min.Packets, min.SourceText(), f)
}

// TestShrinkNonFailure: shrinking a passing case reports no failure and
// returns the case unchanged in essence.
func TestShrinkNonFailure(t *testing.T) {
	c := &Case{ProgSeed: 1, Size: 2, WorkSeed: 1, Packets: 200, Pipelines: 4}
	_, f := Shrink(c, core.ArchMP5, 10)
	if f != nil {
		t.Fatalf("MP5 failed a smoke-grade case during shrink: %v", f)
	}
}

// TestShrinkFailureNonCore: the engine-aware reproduction predicate routes
// to the right engine — shrinking against a cross-latency or
// dataplane-tagged failure on a passing case runs that engine and reports
// no failure.
func TestShrinkFailureNonCore(t *testing.T) {
	c := &Case{ProgSeed: 1, Size: 2, WorkSeed: 1, Packets: 200, Pipelines: 4}
	for _, like := range []*Failure{
		{Engine: EngineDataplane, Arch: core.ArchMP5, Workers: 2},
		{Engine: EngineBytecode, Arch: core.ArchMP5},
		{Engine: EngineCore, Arch: core.ArchMP5, CrossLatency: sweepCrossLatency(c.WorkSeed)},
		{Engine: EngineMultiTenant, Arch: core.ArchMP5, Workers: 4, Tenant: "t1"},
		{Engine: EngineScrep, Arch: core.ArchMP5, Workers: 2},
		{Engine: EngineScrep, Arch: core.ArchMP5, Workers: 2, Submit: SubmitSingle},
	} {
		if _, f := ShrinkFailure(c, like, 6); f != nil {
			t.Fatalf("%s failed a smoke-grade case during shrink: %v", like.Engine, f)
		}
	}
}

// TestMultiTenantLeg pins the multi-tenant differential's own mechanics:
// the setup is deterministic (same case → same K programs and traces, so
// shrink reproduction is exact), tenant t0 is the case's own program, and a
// clean case passes the leg at several worker counts.
func TestMultiTenantLeg(t *testing.T) {
	c := &Case{ProgSeed: 5, Size: 4, WorkSeed: 9, Packets: 500, Pipelines: 4}
	a, fa := multiTenantSetup(c)
	b, fb := multiTenantSetup(c)
	if fa != nil || fb != nil {
		t.Fatalf("setup failed: %v / %v", fa, fb)
	}
	if len(a) != MultiTenantPrograms || len(b) != MultiTenantPrograms {
		t.Fatalf("setup built %d/%d tenants, want %d", len(a), len(b), MultiTenantPrograms)
	}
	for i := range a {
		if a[i].prog.Name != b[i].prog.Name || len(a[i].arrs) != len(b[i].arrs) {
			t.Fatalf("tenant %d not deterministic", i)
		}
		if len(a[i].arrs) > mtPacketCap {
			t.Fatalf("tenant %d trace %d exceeds the cap %d", i, len(a[i].arrs), mtPacketCap)
		}
	}
	if got := c.SourceText(); a[0].prog == nil || got == "" {
		t.Fatal("tenant t0 must be the case's own program")
	}
	if Generate(c.ProgSeed, c.Size) != c.SourceText() {
		t.Fatal("case source drifted")
	}
	for _, workers := range []int{1, 4} {
		for _, f := range runMultiTenant(c, workers) {
			t.Errorf("workers=%d: %v", workers, f)
		}
	}
}

// TestCrossLatencyLegParks: the event-driven cross-latency leg reaches
// early-data parking (a data packet beating its phantom) on smoke-grade
// cases, so its differential coverage of that path is real.
func TestCrossLatencyLegParks(t *testing.T) {
	for _, c := range smokeCases(t) {
		prog, err := compiler.Compile(c.SourceText(), compiler.Options{Target: compiler.TargetMP5})
		if err != nil {
			t.Fatal(err)
		}
		arrivals := c.Arrivals(prog)
		ref := &reference{prog: prog, arrivals: arrivals, k: c.Pipelines}
		cfg := ref.coreConfig(core.ArchMP5, c.WorkSeed, sweepCrossLatency(c.WorkSeed))
		if core.NewSimulator(prog, cfg).Run(arrivals).ParkedEarly > 0 {
			return
		}
	}
	t.Fatal("no smoke case parked a data packet early on the cross-latency leg")
}

// FuzzDifferential is the native fuzz target: the fuzzer explores the
// (program seed, workload seed, size, packets) space, and every input is
// checked against the single-pipeline reference on all order-preserving
// architectures, the cross-latency leg, and the
// concurrent engines (via Run's sweep over every engine). Run long with:
//
//	go test -run FuzzDifferential -fuzz=FuzzDifferential ./internal/fuzz
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(2), uint8(3))
	f.Add(int64(42), int64(7), uint8(5), uint8(1))
	f.Add(int64(7919), int64(104729), uint8(8), uint8(0))
	f.Add(int64(-3), int64(999), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, progSeed, workSeed int64, size, pk uint8) {
		c := &Case{
			ProgSeed:  progSeed,
			Size:      int(size%8) + 1,
			WorkSeed:  workSeed,
			Packets:   100 + int(pk%8)*50, // 100..450
			Pipelines: []int{2, 4, 8}[int(uint64(workSeed)%3)],
		}
		fails := Run(c, OrderPreserving)
		if len(fails) == 0 {
			return
		}
		// A compile error is a generator bug, not an ordering bug — fail
		// loudly without shrinking.
		if fails[0].Reason == "compile" {
			t.Fatalf("generated program does not compile: %s\n%s",
				fails[0].Detail, c.SourceText())
		}
		min, mf := ShrinkFailure(c, fails[0], 60)
		if mf == nil {
			min, mf = c, fails[0]
		}
		t.Fatalf("differential failure (minimized to %d packets):\n%v\nprogram:\n%s\ncase: %+v",
			min.Packets, mf, min.SourceText(), min)
	})
}
