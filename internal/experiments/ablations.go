package experiments

import (
	"fmt"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/ir"
	"mp5/internal/stats"
	"mp5/internal/workload"
)

// The ablations quantify the design choices DESIGN.md calls out beyond the
// paper's own figures: the remap period, the FIFO sizing rule, the skew
// parameters, and the §3.4 mitigations (starvation guard, ECN marking,
// ordering stage).

// AblationRemapInterval sweeps the dynamic-sharding period (the paper
// fixes it at 100 cycles; §3.4 says "every few 100s of clock cycles").
func AblationRemapInterval(sc Scale) *Table {
	t := &Table{
		Title:  "Ablation: dynamic-sharding remap interval (paper default: 100 cycles)",
		Note:   "skewed pattern, default config",
		Header: []string{"interval", "tput", "moves/run"},
	}
	intervals := []int64{25, 50, 100, 200, 400, 800, 1 << 40}
	tputs, moves := grid(len(intervals), sc.Seeds), grid(len(intervals), sc.Seeds)
	sweep(len(intervals), sc.Seeds, func(i, seed int) {
		prog := synthProgram(DefaultStatefulStages, DefaultRegSize)
		trace := workload.Synthetic(prog, workload.Spec{
			Packets: sc.Packets, Pipelines: DefaultPipelines,
			Pattern: workload.Skewed, Seed: int64(seed),
		}, DefaultStatefulStages, DefaultRegSize)
		sim := core.NewSimulator(prog, core.Config{
			Arch: core.ArchMP5, Pipelines: DefaultPipelines,
			Seed: int64(seed), RemapInterval: intervals[i],
		})
		r := sim.Run(trace)
		noteRun(r)
		tputs[i][seed], moves[i][seed] = r.Throughput, float64(r.ShardMoves)
	})
	for i, iv := range intervals {
		label := fmt.Sprint(iv)
		if iv > 1<<30 {
			label = "off"
		}
		t.Rows = append(t.Rows, []string{label, f3(stats.Mean(tputs[i])), f2(stats.Mean(moves[i]))})
	}
	return t
}

// sweep runs cell(row, seed) for every sweep point and seed in parallel.
// Each cell writes only its own slots of grids (one value per row and
// seed), which the table reads back in seed order, as a serial loop would.
func sweep(rows, seeds int, cell func(row, seed int)) {
	parallelFor(rows*seeds, func(i int) { cell(i/seeds, i%seeds) })
}

func grid(rows, seeds int) [][]float64 {
	g := make([][]float64, rows)
	for i := range g {
		g[i] = make([]float64, seeds)
	}
	return g
}

// AblationFIFOCapacity sweeps the per-stage sub-FIFO depth. The paper
// sizes hardware FIFOs at 8 entries, "sufficient to avoid tail drops based
// on observations in §4.4" — this ablation verifies the sizing rule: no
// drops at depth 8 for the real applications, drops at line-rate-saturated
// synthetic loads regardless.
func AblationFIFOCapacity(sc Scale) *Table {
	t := &Table{
		Title:  "Ablation: per-stage FIFO capacity (paper hardware: 8 entries)",
		Header: []string{"capacity", "flowlet drops", "flowlet tput", "synthetic(skew) drops", "synthetic tput"},
	}
	app := apps.Flowlet()
	prog := app.MustCompile(compiler.TargetMP5)
	sprog := synthProgram(DefaultStatefulStages, DefaultRegSize)
	caps := []int{2, 4, 8, 16, 0}
	fd, ft, sd, st := grid(len(caps), sc.Seeds), grid(len(caps), sc.Seeds), grid(len(caps), sc.Seeds), grid(len(caps), sc.Seeds)
	sweep(len(caps), sc.Seeds, func(i, seed int) {
		ftrace := workload.Flows(prog, workload.FlowSpec{
			Packets: sc.Packets, Pipelines: DefaultPipelines, Seed: int64(seed),
		}, app.Bind)
		fsim := core.NewSimulator(prog, core.Config{
			Arch: core.ArchMP5, Pipelines: DefaultPipelines,
			Seed: int64(seed), FIFOCap: caps[i],
		})
		fr := fsim.Run(ftrace)
		noteRun(fr)
		fd[i][seed], ft[i][seed] = float64(fr.DroppedInsert+fr.DroppedPhantom), fr.Throughput

		strace := workload.Synthetic(sprog, workload.Spec{
			Packets: sc.Packets, Pipelines: DefaultPipelines,
			Pattern: workload.Skewed, Seed: int64(seed),
		}, DefaultStatefulStages, DefaultRegSize)
		ssim := core.NewSimulator(sprog, core.Config{
			Arch: core.ArchMP5, Pipelines: DefaultPipelines,
			Seed: int64(seed), FIFOCap: caps[i],
		})
		sr := ssim.Run(strace)
		noteRun(sr)
		sd[i][seed], st[i][seed] = float64(sr.DroppedInsert), sr.Throughput
	})
	for i, cap := range caps {
		label := fmt.Sprint(cap)
		if cap == 0 {
			label = "unbounded"
		}
		t.Rows = append(t.Rows, []string{
			label, f2(stats.Mean(fd[i])), f3(stats.Mean(ft[i])), f2(stats.Mean(sd[i])), f3(stats.Mean(st[i])),
		})
	}
	return t
}

// AblationSkew sweeps the hot-set fraction at a fixed 95% hot weight,
// showing how concentration moves the dynamic-vs-static gap and the
// distance to ideal.
func AblationSkew(sc Scale) *Table {
	t := &Table{
		Title:  "Ablation: hot-set fraction (95% of packets on the hot set)",
		Header: []string{"hot fraction", "mp5", "static", "ideal", "dyn gain"},
	}
	fractions := []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	mp, st, id := grid(len(fractions), sc.Seeds), grid(len(fractions), sc.Seeds), grid(len(fractions), sc.Seeds)
	sweep(len(fractions), sc.Seeds, func(i, seed int) {
		prog := synthProgram(DefaultStatefulStages, DefaultRegSize)
		trace := workload.Synthetic(prog, workload.Spec{
			Packets: sc.Packets, Pipelines: DefaultPipelines,
			Pattern: workload.Skewed, HotFraction: fractions[i], Seed: int64(seed),
		}, DefaultStatefulStages, DefaultRegSize)
		run := func(arch core.Arch) float64 {
			sim := core.NewSimulator(prog, core.Config{
				Arch: arch, Pipelines: DefaultPipelines, Seed: int64(seed),
			})
			r := sim.Run(trace)
			noteRun(r)
			return r.Throughput
		}
		mp[i][seed] = run(core.ArchMP5)
		st[i][seed] = run(core.ArchStaticShard)
		id[i][seed] = run(core.ArchIdeal)
	})
	for i, hf := range fractions {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", hf),
			f3(stats.Mean(mp[i])), f3(stats.Mean(st[i])), f3(stats.Mean(id[i])),
			f2(stats.Mean(mp[i]) / stats.Mean(st[i])),
		})
	}
	return t
}

// AblationMitigations exercises the §3.4 mitigation knobs on a NAT-like
// mixed stateless/stateful workload: the starvation guard bounds queueing
// by dropping stateless packets, ECN marking identifies back-pressure
// candidates, and the ordering stage removes per-flow reordering.
func AblationMitigations(sc Scale) *Table {
	t := &Table{
		Title: "Ablation: Sec 3.4 mitigations (50% stateless packets, hot counters)",
		Note: "'reordered' counts global cross-flow egress inversions; the ordering\n" +
			"stage guarantees zero *per-flow* reordering (what TCP cares about),\n" +
			"which the core test suite asserts directly.",
		Header: []string{"variant", "tput", "reordered", "starved drops", "ecn marked", "maxq"},
	}
	mk := func(guard bool) (*ir.Program, []core.Arrival) {
		prog, err := apps.Synthetic(1, 64, 16)
		if err != nil {
			panic(err)
		}
		if guard {
			if err := compiler.AddOrderingStage(prog, 256, "h0"); err != nil {
				panic(err)
			}
		}
		trace := workload.Synthetic(prog, workload.Spec{
			Packets: sc.Packets, Pipelines: DefaultPipelines,
			Pattern: workload.Skewed, StatelessFraction: 0.5, Seed: 1,
		}, 1, 64)
		return prog, trace
	}
	type variant struct {
		name  string
		guard bool
		cfg   core.Config
	}
	variants := []variant{
		{"baseline", false, core.Config{}},
		{"starve-guard(64)", false, core.Config{StarveThreshold: 64}},
		{"ecn(16)", false, core.Config{ECNThreshold: 16}},
		{"ordering-stage", true, core.Config{}},
	}
	t.Rows = make([][]string, len(variants))
	sweep(len(variants), 1, func(i, _ int) {
		v := variants[i]
		prog, trace := mk(v.guard)
		cfg := v.cfg
		cfg.Arch = core.ArchMP5
		cfg.Pipelines = DefaultPipelines
		cfg.Seed = 1
		sim := core.NewSimulator(prog, cfg)
		r := sim.Run(trace)
		noteRun(r)
		t.Rows[i] = []string{
			v.name, f3(r.Throughput), fmt.Sprint(r.Reordered),
			fmt.Sprint(r.DroppedStarved), fmt.Sprint(r.MarkedECN),
			fmt.Sprint(r.MaxFIFODepth),
		}
	})
	return t
}

// AblationChiplet sweeps the inter-pipeline link latency, exploring the
// §3.5.3 chiplet-disaggregation question: what does MP5 cost when the
// crossbar spans chiplet boundaries? Functional equivalence holds at any
// latency (the phantom channel is pipelined to constant worst-case depth);
// the price is packet latency and, under contention, throughput.
func AblationChiplet(sc Scale) *Table {
	t := &Table{
		Title:  "Ablation: inter-pipeline (chiplet) link latency — Sec 3.5.3 exploration",
		Note:   "default config; latency 0 = paper's single-die design",
		Header: []string{"link cycles", "tput(unif)", "tput(skew)", "mean latency", "p99 latency"},
	}
	lats := []int64{0, 1, 2, 4, 8}
	tu, ts, ml, p99 := grid(len(lats), sc.Seeds), grid(len(lats), sc.Seeds), grid(len(lats), sc.Seeds), grid(len(lats), sc.Seeds)
	sweep(len(lats), sc.Seeds, func(i, seed int) {
		for _, pat := range []workload.Pattern{workload.Uniform, workload.Skewed} {
			prog := synthProgram(DefaultStatefulStages, DefaultRegSize)
			trace := workload.Synthetic(prog, workload.Spec{
				Packets: sc.Packets, Pipelines: DefaultPipelines,
				Pattern: pat, Seed: int64(seed),
			}, DefaultStatefulStages, DefaultRegSize)
			sim := core.NewSimulator(prog, core.Config{
				Arch: core.ArchMP5, Pipelines: DefaultPipelines,
				Seed: int64(seed), CrossLatency: lats[i],
			})
			r := sim.Run(trace)
			noteRun(r)
			if pat == workload.Uniform {
				tu[i][seed], ml[i][seed], p99[i][seed] = r.Throughput, r.MeanLatency, float64(r.P99Latency)
			} else {
				ts[i][seed] = r.Throughput
			}
		}
	})
	for i, lat := range lats {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(lat), f3(stats.Mean(tu[i])), f3(stats.Mean(ts[i])),
			f2(stats.Mean(ml[i])), f2(stats.Mean(p99[i])),
		})
	}
	return t
}

// Atoms reports the Banzai atom templates every built-in application
// requires (the Domino paper's Table-4-style census for this suite).
func Atoms() *Table {
	t := &Table{
		Title:  "Banzai atom census for the Sec 4.4 applications",
		Header: []string{"app", "stage", "atom", "depth", "registers"},
	}
	for _, a := range apps.All() {
		prog := a.MustCompile(compiler.TargetMP5)
		for _, rep := range compiler.ClassifyAtoms(prog) {
			t.Rows = append(t.Rows, []string{
				a.Name, fmt.Sprint(rep.Stage), rep.Kind.String(),
				fmt.Sprint(rep.Depth), fmt.Sprint(rep.Regs),
			})
		}
	}
	return t
}
