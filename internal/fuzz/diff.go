package fuzz

import (
	"fmt"
	"sort"
	"strings"

	"mp5/internal/banzai"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/screp"
	"mp5/internal/workload"
)

// OrderPreserving lists the architectures that must reproduce the
// single-pipeline access order exactly (C1): MP5 itself and the baselines
// that serialize per state. The D4 ablation and the recirculation baseline
// are excluded — violating C1 is their documented behaviour.
var OrderPreserving = []core.Arch{
	core.ArchMP5, core.ArchIdeal, core.ArchNaive, core.ArchStaticShard,
}

// Engine names distinguish which execution engine produced a Failure: the
// event-driven simulator ("core", the default — old artifacts with no engine
// field decode to it), the simulator's legacy full-sweep scheduler
// ("core-sweep"), the concurrent goroutine dataplane ("dataplane"), or the
// direct bytecode-vs-interpreter differential on the serial single-pipeline
// machine ("bytecode").
const (
	EngineCore      = "core"
	EngineSweep     = "core-sweep"
	EngineDataplane = "dataplane"
	EngineBytecode  = "bytecode"
	// EngineMultiTenant is the multi-tenant dataplane differential: K
	// generated programs interleaved on ONE engine, each held to its own
	// independent single-pipeline reference — the tenant-isolation oracle.
	EngineMultiTenant = "dataplane-mt"
	// EngineScrep is the state-compute-replication engine (internal/screp):
	// full-state replicas with round-robin spray and sequenced write-delta
	// replay, held to the same three oracles as the sharded dataplane.
	EngineScrep = "screp"
)

// MultiTenantPrograms is how many programs the multi-tenant leg loads side
// by side: the case's own program plus derived-seed siblings.
const MultiTenantPrograms = 3

// mtPacketCap bounds each tenant's trace in the multi-tenant leg so the
// K-program run stays smoke-grade.
const mtPacketCap = 400

// SubmitSingle marks an engine failure produced by a per-packet Submit loop
// — one-packet admission chunks (Failure.Submit); empty means Run's
// whole-trace chunks.
const SubmitSingle = "single"

// DataplaneWorkers are the worker counts Run sweeps the concurrent dataplane
// across: serial, minimal concurrency, and enough workers to exercise
// steering and parking on programs with several stateful stages.
var DataplaneWorkers = []int{1, 2, 4}

// Case is one differential-fuzzing input: a generated program plus the
// knobs that deterministically expand into a workload. Everything needed
// to reproduce a run is in the case (and serializes to JSON).
type Case struct {
	// ProgSeed/Size regenerate the program when Source is empty; after
	// shrinking, Source carries the minimized program verbatim.
	ProgSeed int64  `json:"prog_seed"`
	Size     int    `json:"size"`
	Source   string `json:"source,omitempty"`
	// Workload knobs.
	WorkSeed  int64 `json:"work_seed"`
	Packets   int   `json:"packets"`
	Pipelines int   `json:"pipelines"`
}

// SourceText returns the case's program source, generating it from
// (ProgSeed, Size) when no explicit source is pinned.
func (c *Case) SourceText() string {
	if c.Source != "" {
		return c.Source
	}
	return Generate(c.ProgSeed, c.Size)
}

// workSpec expands the workload knobs into a FuzzSpec: the seed draws the
// skew, burst and flow parameters so one int64 covers the whole workload
// shape space.
func (c *Case) workSpec() workload.FuzzSpec {
	s := c.WorkSeed
	pick := func(n int64) int64 { // successive deterministic draws
		s = int64(ir.Mix64(uint64(s)))
		v := s % n
		if v < 0 {
			v += n
		}
		return v
	}
	fs := workload.FuzzSpec{
		Spec: workload.Spec{
			Packets:   c.Packets,
			Pipelines: c.Pipelines,
			Seed:      c.WorkSeed,
		},
		Domain: []int{8, 64, 1024}[pick(3)],
	}
	if pick(2) == 0 {
		fs.Pattern = workload.Skewed
	}
	if pick(2) == 0 {
		fs.Flows = int(pick(7)) + 2
	}
	if pick(2) == 0 {
		fs.BurstProb = 0.1
		fs.BurstLen = int(pick(6)) + 2
	}
	return fs
}

// Arrivals expands the case into its deterministic arrival trace.
func (c *Case) Arrivals(prog *ir.Program) []core.Arrival {
	return workload.FuzzTrace(prog, c.workSpec())
}

// OrderDiv names one point where a state's observed access order diverged
// from the single-pipeline reference. Want/Got are packet ids; -1 marks a
// missing entry (sequences of different length).
type OrderDiv struct {
	State string `json:"state"`
	Pos   int    `json:"pos"`
	Want  int64  `json:"want"`
	Got   int64  `json:"got"`
}

func (d OrderDiv) String() string {
	return fmt.Sprintf("%s position %d: reference packet %d, observed %d",
		d.State, d.Pos, d.Want, d.Got)
}

// Failure is one engine configuration's divergence from the reference on one
// case.
type Failure struct {
	// Engine identifies the execution engine (EngineCore, EngineSweep,
	// EngineBytecode, EngineDataplane, EngineMultiTenant or EngineScrep);
	// empty means EngineCore for artifacts written before the field
	// existed. A bytecode-engine failure means the VM and the interpreter
	// disagreed outright on the serial machine. Arch is the simulated
	// architecture for the core engines (always ArchMP5 for the others);
	// Workers is the engine worker count (0 for the core engines).
	Engine  string    `json:"engine,omitempty"`
	Arch    core.Arch `json:"arch"`
	Workers int       `json:"workers,omitempty"`
	// CrossLatency is the simulator's inter-pipeline link latency in
	// cycles (core.Config.CrossLatency) for the full-sweep leg and the
	// event-driven cross-latency leg; 0 for a single-die run and for the
	// other engines.
	CrossLatency int64 `json:"cross_latency,omitempty"`
	// Submit records how the engine was fed: SubmitSingle for the
	// per-packet Submit loop (one-packet chunks), empty for Run's
	// whole-trace SubmitBatch.
	Submit string `json:"submit,omitempty"`
	// Tenant names the diverging tenant of an EngineMultiTenant failure
	// ("t0" is the case's own program, "t1".. the derived siblings); empty
	// for single-program engines and for whole-engine failures (stall/loss).
	Tenant string `json:"tenant,omitempty"`
	// Reason is "compile", "stall", "loss", "state" (equiv mismatch in
	// registers or packet outputs), or "order" (C1 violation).
	Reason string        `json:"reason"`
	Detail string        `json:"detail,omitempty"`
	Report *equiv.Report `json:"report,omitempty"`
	Order  []OrderDiv    `json:"order,omitempty"`
}

func (f *Failure) String() string {
	var b strings.Builder
	switch f.Engine {
	case EngineDataplane:
		mode := ""
		if f.Submit == SubmitSingle {
			mode = ", submit=single"
		}
		fmt.Fprintf(&b, "dataplane(workers=%d%s): %s", f.Workers, mode, f.Reason)
	case EngineMultiTenant:
		who := "engine"
		if f.Tenant != "" {
			who = "tenant " + f.Tenant
		}
		fmt.Fprintf(&b, "dataplane-mt(workers=%d, %s): %s", f.Workers, who, f.Reason)
	case EngineScrep:
		mode := ""
		if f.Submit == SubmitSingle {
			mode = ", submit=single"
		}
		fmt.Fprintf(&b, "screp(workers=%d%s): %s", f.Workers, mode, f.Reason)
	case EngineSweep:
		fmt.Fprintf(&b, "%v (full-sweep, cross-latency %d): %s", f.Arch, f.CrossLatency, f.Reason)
	case EngineBytecode:
		fmt.Fprintf(&b, "bytecode-vs-interpreter: %s", f.Reason)
	default:
		if f.CrossLatency > 0 {
			fmt.Fprintf(&b, "%v (cross-latency %d): %s", f.Arch, f.CrossLatency, f.Reason)
		} else {
			fmt.Fprintf(&b, "%v: %s", f.Arch, f.Reason)
		}
	}
	if f.Detail != "" {
		fmt.Fprintf(&b, " (%s)", f.Detail)
	}
	for _, d := range f.Order {
		b.WriteString("\n  order: " + d.String())
	}
	if f.Report != nil && !f.Report.Equivalent {
		b.WriteString("\n  " + f.Report.String())
	}
	return b.String()
}

// maxOrderDivs caps the reported per-state divergences.
const maxOrderDivs = 8

// reference bundles the single-pipeline ground truth for one case — final
// registers, packet outputs and per-slot order from one interpreter pass — so
// it is computed once and shared across all engine runs.
type reference struct {
	prog     *ir.Program
	arrivals []core.Arrival
	ref      *equiv.Ref
	k        int
}

func newReference(prog *ir.Program, arrivals []core.Arrival, k int) *reference {
	return &reference{
		prog:     prog,
		arrivals: arrivals,
		ref:      equiv.Run(prog, arrivals),
		k:        k,
	}
}

// sweepCrossLatency is the inter-pipeline link latency of the full-sweep and
// cross-latency legs, derived from the case's work seed (1..4 cycles) so a
// replay reproduces it: both legs are differential checks of early-data
// parking, where a data packet outruns its phantom and waits for it.
func sweepCrossLatency(seed int64) int64 { return 1 + (seed%4+4)%4 }

// coreConfig is the simulator configuration of a core leg: arch on the
// case's k pipelines, seeded by the work seed, with crossLat cycles on every
// inter-pipeline crossing.
func (r *reference) coreConfig(arch core.Arch, seed, crossLat int64) core.Config {
	return core.Config{Arch: arch, Pipelines: r.k, Seed: seed, CrossLatency: crossLat}
}

// runCore simulates the case on one architecture of the cycle-accurate
// simulator, with crossLat cycles on every inter-pipeline crossing, and
// compares against the reference; fullSweep forces the legacy
// every-slot-every-cycle scheduler. nil means the engine matched on every
// oracle.
func (r *reference) runCore(arch core.Arch, seed, crossLat int64, fullSweep bool) *Failure {
	engine := EngineCore
	if fullSweep {
		engine = EngineSweep
	}
	slots := map[[2]int][]int64{}
	cfg := r.coreConfig(arch, seed, crossLat)
	cfg.RecordOutputs = true
	cfg.Trace = func(e core.Event) {
		if e.Kind == core.EvAccess {
			slot := [2]int{e.Reg, e.Idx}
			slots[slot] = append(slots[slot], e.PktID)
		}
	}
	sim := core.NewSimulator(r.prog, cfg)
	sim.SetFullSweep(fullSweep)
	fail := &Failure{Engine: engine, Arch: arch, CrossLatency: crossLat}
	res := sim.Run(r.arrivals)
	if res.Stalled {
		fail.Reason = "stall"
		fail.Detail = fmt.Sprintf("%d of %d completed after %d cycles", res.Completed, res.Injected, res.Cycles)
		return fail
	}
	if res.Completed != res.Injected {
		fail.Reason = "loss"
		fail.Detail = fmt.Sprintf("%d of %d completed", res.Completed, res.Injected)
		return fail
	}
	got := make(map[string][]int64, len(slots))
	for slot, seq := range slots {
		got[banzai.AccessKey(slot[0], slot[1])] = seq
	}
	if divs := diffOrders(r.ref.Order, got); len(divs) > 0 {
		fail.Reason = "order"
		fail.Order = divs
		return fail
	}
	if rep := r.ref.Check(sim.FinalRegs(), sim.Outputs()); !rep.Equivalent {
		fail.Reason = "state"
		fail.Report = rep
		return fail
	}
	return nil
}

// runBytecode differences the bytecode VM against the tree-walking
// interpreter in the tightest possible setting: the serial single-pipeline
// machine, same program, same arrival order — only the executor differs, so
// scheduling cannot mask (or manufacture) a miscompile. Oracles: per-slot
// C1 access order (the compiled observation hooks must fire identically)
// and final registers plus per-packet outputs.
func (r *reference) runBytecode() *Failure {
	fail := &Failure{Engine: EngineBytecode, Arch: core.ArchMP5}
	m := banzai.NewMachine(r.prog) // bytecode VM is the machine default
	m.RecordIndexedAccesses()
	outputs := make(map[int64][]int64, len(r.arrivals))
	env := ir.NewEnv(r.prog)
	for i := range r.arrivals {
		env.ResetFor(r.arrivals[i].Fields)
		m.Process(int64(i), env)
		outputs[int64(i)] = append([]int64(nil), env.Fields...)
	}
	if divs := diffOrders(r.ref.Order, m.IndexedAccessLog()); len(divs) > 0 {
		fail.Reason = "order"
		fail.Order = divs
		return fail
	}
	if rep := r.ref.Check(m.Regs().Snapshot(), outputs); !rep.Equivalent {
		fail.Reason = "state"
		fail.Report = rep
		return fail
	}
	return nil
}

// runDataplane executes the case on the concurrent goroutine dataplane with
// the given worker count and holds it to the same oracles as the simulator:
// liveness (no watchdog stall), loss-freedom, C1 per-slot access order, and
// final registers plus packet outputs. single feeds the engine through a
// per-packet Submit loop instead of Run's whole-trace SubmitBatch, so
// one-packet chunks stay differentially checked beside full ones.
func (r *reference) runDataplane(workers int, single bool) *Failure {
	fail := &Failure{Engine: EngineDataplane, Arch: core.ArchMP5, Workers: workers}
	if single {
		fail.Submit = SubmitSingle
	}
	eng := dataplane.New(r.prog, dataplane.Config{
		Workers:           workers,
		RecordOutputs:     true,
		RecordAccessOrder: true,
	})
	var res *dataplane.Result
	if single {
		eng.Start()
		for i := range r.arrivals {
			if !eng.Submit(&r.arrivals[i]) {
				break
			}
		}
		res = eng.Drain()
	} else {
		res = eng.Run(r.arrivals)
	}
	if res.Stalled {
		fail.Reason = "stall"
		fail.Detail = fmt.Sprintf("%d of %d completed before the watchdog fired", res.Completed, res.Injected)
		return fail
	}
	if res.Completed != res.Injected {
		fail.Reason = "loss"
		fail.Detail = fmt.Sprintf("%d of %d completed", res.Completed, res.Injected)
		return fail
	}
	if divs := diffOrders(r.ref.Order, eng.AccessOrders()); len(divs) > 0 {
		fail.Reason = "order"
		fail.Order = divs
		return fail
	}
	if rep := r.ref.Check(eng.FinalRegs(), eng.Outputs()); !rep.Equivalent {
		fail.Reason = "state"
		fail.Report = rep
		return fail
	}
	return nil
}

// runScrep executes the case on the state-compute-replication engine with
// the given replica count and holds it to the same oracles as the sharded
// dataplane: liveness, loss-freedom, C1 per-slot access order, and final
// registers plus packet outputs. Since every replica holds the full state,
// an order or state divergence here means the delta replay chain broke —
// the exact failure mode replication trades the shard map away for.
func (r *reference) runScrep(workers int, single bool) *Failure {
	fail := &Failure{Engine: EngineScrep, Arch: core.ArchMP5, Workers: workers}
	if single {
		fail.Submit = SubmitSingle
	}
	eng := screp.New(r.prog, screp.Config{
		Workers:           workers,
		RecordOutputs:     true,
		RecordAccessOrder: true,
	})
	var res *screp.Result
	if single {
		eng.Start()
		for i := range r.arrivals {
			if !eng.Submit(&r.arrivals[i]) {
				break
			}
		}
		res = eng.Drain()
	} else {
		res = eng.Run(r.arrivals)
	}
	if res.Stalled {
		fail.Reason = "stall"
		fail.Detail = fmt.Sprintf("%d of %d completed before the watchdog fired", res.Completed, res.Injected)
		return fail
	}
	if res.Completed != res.Injected {
		fail.Reason = "loss"
		fail.Detail = fmt.Sprintf("%d of %d completed", res.Completed, res.Injected)
		return fail
	}
	if divs := diffOrders(r.ref.Order, eng.AccessOrders()); len(divs) > 0 {
		fail.Reason = "order"
		fail.Order = divs
		return fail
	}
	if rep := r.ref.Check(eng.FinalRegs(), eng.Outputs()); !rep.Equivalent {
		fail.Reason = "state"
		fail.Report = rep
		return fail
	}
	return nil
}

// mtTenant is one tenant of the multi-tenant differential leg: its own
// program, its own deterministic trace, and its own reference.
type mtTenant struct {
	name string
	prog *ir.Program
	arrs []core.Arrival
	ref  *equiv.Ref
}

// multiTenantSetup expands the case into the K tenants the multi-tenant leg
// interleaves: tenant t0 runs the case's own program on (a capped prefix
// of) the case's workload knobs, t1.. run sibling programs generated from
// derived seeds with derived workloads. Fully deterministic in the case, so
// runLike reproduces the exact run.
func multiTenantSetup(c *Case) ([]mtTenant, *Failure) {
	tenants := make([]mtTenant, 0, MultiTenantPrograms)
	for i := 0; i < MultiTenantPrograms; i++ {
		name := fmt.Sprintf("t%d", i)
		sub := *c
		sub.WorkSeed = c.WorkSeed + int64(i)*7919
		if sub.Packets > mtPacketCap {
			sub.Packets = mtPacketCap
		}
		if i > 0 {
			sub.ProgSeed = c.ProgSeed + int64(i)*104729
			sub.Source = "" // siblings always regenerate from the derived seed
		}
		prog, err := compiler.Compile(sub.SourceText(), compiler.Options{Target: compiler.TargetMP5})
		if err != nil {
			return nil, &Failure{Engine: EngineMultiTenant, Arch: core.ArchMP5,
				Tenant: name, Reason: "compile", Detail: err.Error()}
		}
		arrs := sub.Arrivals(prog)
		if len(arrs) == 0 {
			continue
		}
		tenants = append(tenants, mtTenant{
			name: name,
			prog: prog,
			arrs: arrs,
			ref:  equiv.Run(prog, arrs),
		})
	}
	return tenants, nil
}

// runMultiTenant interleaves the K tenant programs on one multi-program
// engine in round-robin batches and holds every tenant to its own
// single-pipeline reference: the engine as a whole must not stall or lose
// packets, and each tenant's namespace must match its reference on final
// registers, packet outputs, and per-slot C1 access order — exactly as if
// it had run alone.
func runMultiTenant(c *Case, workers int) []*Failure {
	tenants, cfail := multiTenantSetup(c)
	if cfail != nil {
		cfail.Workers = workers
		return []*Failure{cfail}
	}
	eng := dataplane.NewMulti(dataplane.Config{
		Workers:           workers,
		RecordOutputs:     true,
		RecordAccessOrder: true,
	})
	handles := make([]*dataplane.Handle, len(tenants))
	for i, tn := range tenants {
		handles[i] = eng.AddProgram(tn.name, tn.prog, nil)
	}
	eng.Start()
	total := 0
	offs := make([]int, len(tenants))
	const chunk = 61
	for {
		idle := true
		for i := range tenants {
			if offs[i] >= len(tenants[i].arrs) {
				continue
			}
			idle = false
			end := offs[i] + chunk
			if end > len(tenants[i].arrs) {
				end = len(tenants[i].arrs)
			}
			got := eng.SubmitBatchTo(handles[i], tenants[i].arrs[offs[i]:end], nil, nil)
			offs[i] += got
			total += got
			if got == 0 { // unlimited tenants: a refusal means the engine died
				idle = true
				break
			}
		}
		if idle {
			break
		}
	}
	res := eng.Drain()
	fail := func(tenant string) *Failure {
		return &Failure{Engine: EngineMultiTenant, Arch: core.ArchMP5,
			Workers: workers, Tenant: tenant}
	}
	if res.Stalled {
		f := fail("")
		f.Reason = "stall"
		f.Detail = fmt.Sprintf("%d of %d completed before the watchdog fired", res.Completed, res.Injected)
		return []*Failure{f}
	}
	if res.Completed != int64(total) || total != totalArrivals(tenants) {
		f := fail("")
		f.Reason = "loss"
		f.Detail = fmt.Sprintf("%d of %d completed (%d admitted)", res.Completed, totalArrivals(tenants), total)
		return []*Failure{f}
	}
	var fails []*Failure
	for i, tn := range tenants {
		if divs := diffOrders(tn.ref.Order, eng.AccessOrdersFor(handles[i])); len(divs) > 0 {
			f := fail(tn.name)
			f.Reason = "order"
			f.Order = divs
			fails = append(fails, f)
			continue
		}
		if rep := tn.ref.Check(eng.FinalRegsFor(handles[i]), eng.OutputsFor(handles[i])); !rep.Equivalent {
			f := fail(tn.name)
			f.Reason = "state"
			f.Report = rep
			fails = append(fails, f)
		}
	}
	return fails
}

func totalArrivals(tenants []mtTenant) int {
	n := 0
	for _, tn := range tenants {
		n += len(tn.arrs)
	}
	return n
}

// diffOrders compares every state's observed access sequence against the
// reference, returning the first divergence per state (capped). Keys are
// compared in both directions so spurious and missing states both surface.
func diffOrders(want, got map[string][]int64) []OrderDiv {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var divs []OrderDiv
	for _, k := range keys {
		if len(divs) >= maxOrderDivs {
			break
		}
		w, g := want[k], got[k]
		n := len(w)
		if len(g) > n {
			n = len(g)
		}
		for i := 0; i < n; i++ {
			wv, gv := int64(-1), int64(-1)
			if i < len(w) {
				wv = w[i]
			}
			if i < len(g) {
				gv = g[i]
			}
			if wv != gv {
				divs = append(divs, OrderDiv{State: k, Pos: i, Want: wv, Got: gv})
				break // first divergence per state
			}
		}
	}
	return divs
}

// Run compiles the case once and checks it against the single-pipeline
// reference on every engine configuration: the direct bytecode-vs-interpreter
// differential on the serial machine, each architecture in archs on the
// event-driven simulator, ArchMP5 on the event-driven and on the legacy
// full-sweep scheduler behind a slow crossbar (sweepCrossLatency), the
// concurrent goroutine dataplane and the state-compute-replication engine at
// every DataplaneWorkers count, and the multi-tenant dataplane — so one seed
// cross-checks every engine. Every engine runs the bytecode VM; the
// references run the interpreter. It returns one Failure per diverging
// configuration. A compile error returns a single "compile" failure (the
// generator aims for 100% compilable output, so this is itself a finding).
func Run(c *Case, archs []core.Arch) []*Failure {
	return RunEngines(c, archs, "")
}

// RunEngines is Run with an engine filter: only restricts the sweep to one
// engine family (an Engine* constant; EngineCore keeps the per-arch sweep
// and the cross-latency run). Empty means everything. The filter is
// what -engine on mp5fuzz and MP5_FUZZ_ENGINE in the test harness plug
// into — a replication-only soak costs a fraction of the full sweep.
func RunEngines(c *Case, archs []core.Arch, only string) []*Failure {
	want := func(engine string) bool { return only == "" || only == engine }
	if c.Pipelines <= 0 {
		c.Pipelines = core.DefaultPipelines
	}
	prog, err := compiler.Compile(c.SourceText(), compiler.Options{Target: compiler.TargetMP5})
	if err != nil {
		return []*Failure{{Reason: "compile", Detail: err.Error()}}
	}
	arrivals := c.Arrivals(prog)
	if len(arrivals) == 0 {
		return nil
	}
	ref := newReference(prog, arrivals, c.Pipelines)
	var fails []*Failure
	if want(EngineBytecode) {
		if f := ref.runBytecode(); f != nil {
			fails = append(fails, f)
		}
	}
	if want(EngineCore) {
		for _, a := range archs {
			if f := ref.runCore(a, c.WorkSeed, 0, false); f != nil {
				fails = append(fails, f)
			}
		}
	}
	if want(EngineSweep) {
		if f := ref.runCore(core.ArchMP5, c.WorkSeed, sweepCrossLatency(c.WorkSeed), true); f != nil {
			fails = append(fails, f)
		}
	}
	if want(EngineDataplane) {
		for _, w := range DataplaneWorkers {
			if f := ref.runDataplane(w, false); f != nil {
				fails = append(fails, f)
			}
		}
		// One per-packet-Submit dataplane run: the sweep above exercises the
		// batched admission path, so this leg keeps the single-packet path
		// (and its distinct ticket/dispatch interleaving) under the same
		// three oracles.
		if f := ref.runDataplane(2, true); f != nil {
			fails = append(fails, f)
		}
	}
	if want(EngineScrep) {
		// Replication leg: same worker sweep and same oracles as the sharded
		// engine, plus one per-packet-Submit run — so both strategies answer
		// to the identical differential contract on every case.
		for _, w := range DataplaneWorkers {
			if f := ref.runScrep(w, false); f != nil {
				fails = append(fails, f)
			}
		}
		if f := ref.runScrep(2, true); f != nil {
			fails = append(fails, f)
		}
	}
	if want(EngineMultiTenant) {
		// Multi-tenant leg: the case's program plus derived siblings
		// interleaved on one engine, each tenant against its own reference.
		fails = append(fails, runMultiTenant(c, 4)...)
	}
	if want(EngineCore) {
		// Cross-latency run: the flagship architecture on the event-driven
		// scheduler behind the full-sweep leg's slow crossbar, so early-data
		// parking is checked on the scheduler production runs, not only on
		// the legacy one.
		if f := ref.runCore(core.ArchMP5, c.WorkSeed, sweepCrossLatency(c.WorkSeed), false); f != nil {
			fails = append(fails, f)
		}
	}
	return fails
}

// runLike reruns only the engine configuration that produced like, returning
// its failure if the case still diverges (or a "compile" failure). This is
// the shrink loop's reproduction predicate: matching on the originating
// engine keeps a minimization from being hijacked by an unrelated divergence
// on another engine, and skips the cost of the full sweep over every engine
// on every candidate.
func runLike(c *Case, like *Failure) *Failure {
	if c.Pipelines <= 0 {
		c.Pipelines = core.DefaultPipelines
	}
	prog, err := compiler.Compile(c.SourceText(), compiler.Options{Target: compiler.TargetMP5})
	if err != nil {
		return &Failure{Reason: "compile", Detail: err.Error()}
	}
	arrivals := c.Arrivals(prog)
	if len(arrivals) == 0 {
		return nil
	}
	ref := newReference(prog, arrivals, c.Pipelines)
	switch like.Engine {
	case EngineBytecode:
		return ref.runBytecode()
	case EngineDataplane:
		return ref.runDataplane(like.Workers, like.Submit == SubmitSingle)
	case EngineScrep:
		return ref.runScrep(like.Workers, like.Submit == SubmitSingle)
	case EngineMultiTenant:
		workers := like.Workers
		if workers <= 0 {
			workers = 4
		}
		fails := runMultiTenant(c, workers)
		for _, f := range fails {
			if f.Tenant == like.Tenant {
				return f
			}
		}
		if len(fails) > 0 {
			return fails[0]
		}
		return nil
	default:
		return ref.runCore(like.Arch, c.WorkSeed, like.CrossLatency, like.Engine == EngineSweep)
	}
}
