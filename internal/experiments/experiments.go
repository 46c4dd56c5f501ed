// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Table 1 (area/clock), the §4.2 SRAM overhead, the
// §4.3.2 design-principle microbenchmarks (D2 dynamic sharding, D3
// steering vs recirculation, D4 order enforcement), the Figure-7
// sensitivity sweeps, and the Figure-8 real-application runs. The same
// entry points back the mp5bench command, whose output EXPERIMENTS.md
// holds verbatim.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"mp5/internal/apps"
	"mp5/internal/asic"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/ir"
	"mp5/internal/stats"
	"mp5/internal/telemetry"
	"mp5/internal/workload"
)

// Metrics aggregates counters over every simulation the harness runs
// (concurrently-safe; mp5bench snapshots it as Prometheus text with
// -metrics-out). noteRun must be called with each finished Result.
var (
	Metrics        = telemetry.NewRegistry()
	mSims          = Metrics.NewCounter("mp5bench_sims_total", "simulations executed by the experiment harness")
	mPktsInjected  = Metrics.NewCounter("mp5bench_packets_injected_total", "packets offered across all harness simulations")
	mPktsCompleted = Metrics.NewCounter("mp5bench_packets_completed_total", "packets completed across all harness simulations")
	mSimCycles     = Metrics.NewCounter("mp5bench_sim_cycles_total", "simulated cycles across all harness simulations")
	mShardMoves    = Metrics.NewCounter("mp5bench_shard_moves_total", "dynamic-sharding migrations across all harness simulations")
	mSimsByArch    = Metrics.NewCounterVec("mp5bench_sims_by_arch_total", "simulations by architecture", "arch")
)

// noteRun records one finished simulation into the harness metrics.
func noteRun(r *core.Result) {
	mSims.Inc()
	mPktsInjected.Add(r.Injected)
	mPktsCompleted.Add(r.Completed)
	mSimCycles.Add(r.Cycles)
	mShardMoves.Add(r.ShardMoves)
	mSimsByArch.Inc(r.Arch.String())
}

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Format renders the table as GitHub markdown: the title in bold, then the
// note (if any), then the table, its columns padded so that the text reads
// as aligned columns too. A '|' inside a cell is escaped.
func (t *Table) Format() string {
	grid := append([][]string{t.Header}, t.Rows...)
	widths := make([]int, len(t.Header))
	for _, row := range grid {
		for i, c := range row {
			widths[i] = max(widths[i], len(escapeCell(c)), 3)
		}
	}
	dashes := make([]string, len(widths))
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	grid = slices.Insert(grid, 1, dashes)

	var b strings.Builder
	fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Note)
	}
	for _, row := range grid {
		for i, c := range row {
			fmt.Fprintf(&b, "| %-*s ", widths[i], escapeCell(c))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

func escapeCell(c string) string { return strings.ReplaceAll(c, "|", `\|`) }

// Scale controls how much work the experiments do; the defaults keep a
// full regeneration under a few minutes, while -full in mp5bench matches
// the paper's ten seeds.
type Scale struct {
	Packets int
	Seeds   int
}

// DefaultScale is mp5bench's default, the scale EXPERIMENTS.md is taken at.
var DefaultScale = Scale{Packets: 20000, Seeds: 3}

// PaperScale matches §4.3's "ten independent input packet streams".
var PaperScale = Scale{Packets: 50000, Seeds: 10}

// Defaults shared by the sensitivity experiments (§4.3.1).
const (
	DefaultStatefulStages = 4
	DefaultRegSize        = 512
	DefaultPacketSize     = 64
	DefaultPipelines      = 4
	MaxStages             = 16
)

// synthRun compiles (cached, concurrency-safe) and runs one
// synthetic-program simulation.
type synthKey struct {
	stateful, regSize int
}

var (
	synthCacheMu sync.Mutex
	synthCache   = map[synthKey]*ir.Program{}
)

func synthProgram(stateful, regSize int) *ir.Program {
	synthCacheMu.Lock()
	defer synthCacheMu.Unlock()
	key := synthKey{stateful, regSize}
	if p, ok := synthCache[key]; ok {
		return p
	}
	p, err := apps.Synthetic(stateful, regSize, MaxStages)
	if err != nil {
		panic(fmt.Sprintf("experiments: synthetic compile: %v", err))
	}
	synthCache[key] = p
	return p
}

// SynthConfig describes one synthetic sensitivity run.
type SynthConfig struct {
	Arch       core.Arch
	Pipelines  int
	Stateful   int
	RegSize    int
	PacketSize int
	Pattern    workload.Pattern
	Packets    int
	Seed       int64
	Churn      int64
	Record     bool
}

// RunSynth executes one synthetic simulation and returns its result.
func RunSynth(c SynthConfig) *core.Result {
	if c.Pipelines == 0 {
		c.Pipelines = DefaultPipelines
	}
	if c.RegSize == 0 {
		c.RegSize = DefaultRegSize
	}
	if c.PacketSize == 0 {
		c.PacketSize = DefaultPacketSize
	}
	prog := synthProgram(c.Stateful, c.RegSize)
	trace := workload.Synthetic(prog, workload.Spec{
		Packets:       c.Packets,
		Pipelines:     c.Pipelines,
		PacketSize:    c.PacketSize,
		Pattern:       c.Pattern,
		ChurnInterval: c.Churn,
		Seed:          c.Seed,
	}, c.Stateful, c.RegSize)
	sim := core.NewSimulator(prog, core.Config{
		Arch:              c.Arch,
		Pipelines:         c.Pipelines,
		Seed:              c.Seed + 1000,
		RecordAccessOrder: c.Record,
	})
	r := sim.Run(trace)
	noteRun(r)
	return r
}

func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Table1 regenerates the paper's Table 1 from the ASIC cost model,
// alongside the published values.
func Table1() *Table {
	p := asic.DefaultParams()
	t := &Table{
		Title:  "Table 1: chip area and clock vs pipelines (k) and stages (s)",
		Note:   "analytic 15nm model calibrated to the paper's synthesis corners",
		Header: []string{"k", "s", "area mm^2", "paper mm^2", "clock GHz", ">=1GHz"},
	}
	for _, k := range []int{2, 4, 8} {
		for _, s := range []int{4, 8, 12, 16} {
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(k), fmt.Sprint(s),
				f2(p.Area(k, s)), f2(asic.PaperTable1[k][s]),
				f2(p.ClockGHz(k, s)),
				fmt.Sprint(p.MeetsGigahertz(k, s)),
			})
		}
	}
	return t
}

// SRAM regenerates the §4.2 SRAM-overhead computation.
func SRAM() *Table {
	t := &Table{
		Title:  "SRAM overhead (Sec 4.2): 30 bits per register index",
		Note:   "pipeline#(6b) + access counter(16b) + in-flight counter(8b), per pipeline",
		Header: []string{"stateful stages", "entries/stage", "overhead KB"},
	}
	for _, cfg := range [][2]int{{4, 512}, {4, 1000}, {10, 1000}, {10, 4096}} {
		kb := float64(asic.SRAMOverheadBytes(cfg[0], cfg[1])) / 1024
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(cfg[0]), fmt.Sprint(cfg[1]), f2(kb),
		})
	}
	return t
}

// D2Sharding is the §4.3.2 dynamic-vs-static sharding microbenchmark:
// per-seed throughput of MP5 against frozen random sharding, for both
// access patterns (paper: 1–1.5x uniform, 1.1–3.3x skewed).
func D2Sharding(sc Scale) *Table {
	t := &Table{
		Title:  "D2: dynamically sharded shared memory (Sec 4.3.2)",
		Note:   fmt.Sprintf("default config, %d packets, %d seeds", sc.Packets, sc.Seeds),
		Header: []string{"pattern", "dyn tput", "static tput", "gain min", "gain mean", "gain max"},
	}
	type variant struct {
		label   string
		pattern workload.Pattern
		churn   int64
	}
	variants := []variant{
		{"uniform", workload.Uniform, 0},
		{"skewed", workload.Skewed, 0},
		// Hot-set churn models flows coming and going — the regime
		// where frozen placements age fastest.
		{"skewed+churn", workload.Skewed, 2000},
	}
	dyn := make([][]float64, len(variants))
	sta := make([][]float64, len(variants))
	var tasks []func()
	for vi, v := range variants {
		dyn[vi] = make([]float64, sc.Seeds)
		sta[vi] = make([]float64, sc.Seeds)
		for seed := 0; seed < sc.Seeds; seed++ {
			vi, v, seed := vi, v, seed
			tasks = append(tasks, func() {
				base := SynthConfig{
					Pipelines: DefaultPipelines, Stateful: DefaultStatefulStages,
					Pattern: v.pattern, Churn: v.churn,
					Packets: sc.Packets, Seed: int64(seed),
				}
				d := base
				d.Arch = core.ArchMP5
				s := base
				s.Arch = core.ArchStaticShard
				dyn[vi][seed] = RunSynth(d).Throughput
				sta[vi][seed] = RunSynth(s).Throughput
			})
		}
	}
	runAll(tasks)
	for vi, v := range variants {
		gains := stats.Summarize(stats.Ratios(dyn[vi], sta[vi]))
		t.Rows = append(t.Rows, []string{
			v.label, f3(stats.Mean(dyn[vi])), f3(stats.Mean(sta[vi])),
			f2(gains.Min), f2(gains.Mean), f2(gains.Max),
		})
	}
	return t
}

// D4Violations is the §4.3.2 order-enforcement microbenchmark: fraction of
// packets violating C1 with D4, without D4, and with recirculation
// (paper: 0%, 14–26%, 18–31%).
func D4Violations(sc Scale) *Table {
	t := &Table{
		Title:  "D4: preemptive state access order enforcement (Sec 4.3.2)",
		Note:   "fraction of packets violating C1 across seeds",
		Header: []string{"architecture", "viol min", "viol mean", "viol max"},
	}
	archs := []core.Arch{core.ArchMP5, core.ArchMP5NoD4, core.ArchRecirc}
	v := make([][]float64, len(archs))
	var tasks []func()
	for ai, arch := range archs {
		v[ai] = make([]float64, sc.Seeds)
		for seed := 0; seed < sc.Seeds; seed++ {
			ai, arch, seed := ai, arch, seed
			tasks = append(tasks, func() {
				r := RunSynth(SynthConfig{
					Arch: arch, Pipelines: DefaultPipelines,
					Stateful: DefaultStatefulStages, Pattern: workload.Uniform,
					Packets: sc.Packets, Seed: int64(seed), Record: true,
				})
				v[ai][seed] = r.ViolationFraction
			})
		}
	}
	runAll(tasks)
	for ai, arch := range archs {
		s := stats.Summarize(v[ai])
		t.Rows = append(t.Rows, []string{arch.String(), pct(s.Min), pct(s.Mean), pct(s.Max)})
	}
	return t
}

// D3Steering is the §4.3.2 steering-vs-recirculation microbenchmark:
// throughput loss of recirculation relative to MP5 (paper: 31–77%), the
// average recirculations per packet, and the crossover where recirculation
// underperforms even the naive single-pipeline-state design (when
// recirculations/packet exceed the pipeline count).
func D3Steering(sc Scale) *Table {
	t := &Table{
		Title:  "D3: inter-pipeline packet steering vs recirculation (Sec 4.3.2)",
		Header: []string{"config", "mp5 tput", "recirc tput", "naive tput", "loss vs mp5", "recircs/pkt", "recirc<naive"},
	}
	type row struct {
		label       string
		k, stateful int
	}
	rows := []row{
		{"light (k=4, 1 stateful)", DefaultPipelines, 1},
		{"moderate (k=4, 2 stateful)", DefaultPipelines, 2},
		{"default (k=4, 4 stateful)", DefaultPipelines, DefaultStatefulStages},
		{"crossover (k=2, 10 stateful)", 2, 10},
	}
	mp5T := make([][]float64, len(rows))
	recT := make([][]float64, len(rows))
	naiveT := make([][]float64, len(rows))
	rpp := make([][]float64, len(rows))
	var tasks []func()
	for ri, rw := range rows {
		mp5T[ri] = make([]float64, sc.Seeds)
		recT[ri] = make([]float64, sc.Seeds)
		naiveT[ri] = make([]float64, sc.Seeds)
		rpp[ri] = make([]float64, sc.Seeds)
		for seed := 0; seed < sc.Seeds; seed++ {
			ri, rw, seed := ri, rw, seed
			tasks = append(tasks, func() {
				base := SynthConfig{
					Pipelines: rw.k, Stateful: rw.stateful, Pattern: workload.Skewed,
					Packets: sc.Packets, Seed: int64(seed),
				}
				m := base
				m.Arch = core.ArchMP5
				r := base
				r.Arch = core.ArchRecirc
				n := base
				n.Arch = core.ArchNaive
				mres := RunSynth(m)
				rres := RunSynth(r)
				nres := RunSynth(n)
				mp5T[ri][seed] = mres.Throughput
				recT[ri][seed] = rres.Throughput
				naiveT[ri][seed] = nres.Throughput
				rpp[ri][seed] = float64(rres.Recirculations) / float64(rres.Completed)
			})
		}
	}
	runAll(tasks)
	for ri, rw := range rows {
		loss := 1 - stats.Mean(recT[ri])/stats.Mean(mp5T[ri])
		t.Rows = append(t.Rows, []string{
			rw.label, f3(stats.Mean(mp5T[ri])), f3(stats.Mean(recT[ri])), f3(stats.Mean(naiveT[ri])),
			pct(loss), f2(stats.Mean(rpp[ri])),
			fmt.Sprint(stats.Mean(recT[ri]) < stats.Mean(naiveT[ri])),
		})
	}
	return t
}

// fig7Sweep runs MP5 and Ideal across a swept parameter for both patterns.
func fig7Sweep(title, param string, values []int, sc Scale, mk func(base SynthConfig, v int) SynthConfig) *Table {
	t := &Table{
		Title: title,
		Note:  "normalized throughput, mean across seeds; ideal = no HOL blocking + LPT sharding",
		Header: []string{param,
			"mp5(unif)", "ideal(unif)", "mp5(skew)", "ideal(skew)"},
	}
	patterns := []workload.Pattern{workload.Uniform, workload.Skewed}
	archs := []core.Arch{core.ArchMP5, core.ArchIdeal}
	// results[value][pattern*2+arch][seed]
	results := make([][][]float64, len(values))
	var tasks []func()
	for vi, v := range values {
		results[vi] = make([][]float64, len(patterns)*len(archs))
		for pi, pat := range patterns {
			for ai, arch := range archs {
				col := pi*len(archs) + ai
				results[vi][col] = make([]float64, sc.Seeds)
				for seed := 0; seed < sc.Seeds; seed++ {
					vi, v, col, seed, pat, arch := vi, v, col, seed, pat, arch
					tasks = append(tasks, func() {
						cfg := mk(SynthConfig{
							Arch: arch, Pipelines: DefaultPipelines,
							Stateful: DefaultStatefulStages, Pattern: pat,
							Packets: sc.Packets, Seed: int64(seed),
						}, v)
						results[vi][col][seed] = RunSynth(cfg).Throughput
					})
				}
			}
		}
	}
	runAll(tasks)
	for vi, v := range values {
		row := []string{fmt.Sprint(v)}
		for col := range results[vi] {
			row = append(row, f3(stats.Mean(results[vi][col])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig7a sweeps the number of pipelines (paper: gentle decay, ~25% from 1
// to 16 pipelines).
func Fig7a(sc Scale) *Table {
	return fig7Sweep("Figure 7a: throughput vs number of pipelines", "pipelines",
		[]int{1, 2, 4, 8, 12, 16}, sc,
		func(b SynthConfig, v int) SynthConfig { b.Pipelines = v; return b })
}

// Fig7b sweeps the number of stateful stages (paper: ~20% decay from 0 to
// 10 stateful stages).
func Fig7b(sc Scale) *Table {
	return fig7Sweep("Figure 7b: throughput vs stateful stages", "stateful",
		[]int{0, 1, 2, 4, 6, 8, 10}, sc,
		func(b SynthConfig, v int) SynthConfig { b.Stateful = v; return b })
}

// Fig7c sweeps the register array size (paper: steady increase from 1 to
// 4096 — tiny arrays cannot be sharded effectively).
func Fig7c(sc Scale) *Table {
	return fig7Sweep("Figure 7c: throughput vs register size", "regsize",
		[]int{1, 4, 16, 64, 256, 512, 1024, 4096}, sc,
		func(b SynthConfig, v int) SynthConfig { b.RegSize = v; return b })
}

// Fig7d sweeps the packet size (paper: line rate from 128 B up).
func Fig7d(sc Scale) *Table {
	return fig7Sweep("Figure 7d: throughput vs packet size", "bytes",
		[]int{64, 128, 256, 512, 1024, 1500}, sc,
		func(b SynthConfig, v int) SynthConfig { b.PacketSize = v; return b })
}

// Fig8 runs the four real applications with realistic packet/flow
// distributions across pipeline counts (paper: line rate everywhere;
// max per-stage queue 11/8/7/7 for flowlet/CONGA/WFQ/sequencer).
func Fig8(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 8: real applications (web-search flows, bimodal packet sizes)",
		Note:   "normalized throughput (and max per-stage queue depth)",
		Header: []string{"pipelines", "flowlet", "conga", "wfq", "sequencer"},
	}
	appList := apps.All()
	progs := make([]*ir.Program, len(appList))
	for i, a := range appList {
		progs[i] = a.MustCompile(compiler.TargetMP5)
	}
	ks := []int{1, 2, 4, 8}
	tputs := make([][][]float64, len(ks))
	maxQs := make([][][]int, len(ks))
	var tasks []func()
	for ki, k := range ks {
		tputs[ki] = make([][]float64, len(appList))
		maxQs[ki] = make([][]int, len(appList))
		for i, a := range appList {
			tputs[ki][i] = make([]float64, sc.Seeds)
			maxQs[ki][i] = make([]int, sc.Seeds)
			for seed := 0; seed < sc.Seeds; seed++ {
				ki, k, i, a, seed := ki, k, i, a, seed
				tasks = append(tasks, func() {
					trace := workload.Flows(progs[i], workload.FlowSpec{
						Packets: sc.Packets, Pipelines: k, Seed: int64(100 + seed),
					}, a.Bind)
					sim := core.NewSimulator(progs[i], core.Config{
						Arch: core.ArchMP5, Pipelines: k, Seed: int64(seed),
					})
					r := sim.Run(trace)
					noteRun(r)
					tputs[ki][i][seed] = r.Throughput
					maxQs[ki][i][seed] = r.MaxFIFODepth
				})
			}
		}
	}
	runAll(tasks)
	for ki, k := range ks {
		row := []string{fmt.Sprint(k)}
		for i := range appList {
			maxQ := 0
			for _, q := range maxQs[ki][i] {
				if q > maxQ {
					maxQ = q
				}
			}
			row = append(row, fmt.Sprintf("%s (q=%d)", f3(stats.Mean(tputs[ki][i])), maxQ))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
