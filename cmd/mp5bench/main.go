// Command mp5bench regenerates the paper's evaluation tables and figures
// (Table 1, the §4.2 SRAM overhead, the §4.3.2 D2/D3/D4 microbenchmarks,
// the Figure-7 sensitivity sweeps, and the Figure-8 application runs),
// then the ablations beyond the paper's artifacts, as GitHub markdown
// tables. Its output is deterministic: EXPERIMENTS.md holds the default
// run verbatim, and scripts/experiments_check.sh diffs the two. Host-time
// measurements are not its job: those come from the benchmark harness
// (bench/run.sh, see bench/README.md).
//
// Usage:
//
//	mp5bench                 # everything at the default scale
//	mp5bench -full           # the paper's scale (10 seeds, longer traces)
//	mp5bench -only fig7a     # one experiment (mp5bench -h lists them)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mp5/internal/experiments"
)

// tables lists every experiment by its -only name, in print order: the
// paper's artifacts, then the extensions beyond them.
var tables = []struct {
	name string
	run  func(experiments.Scale) *experiments.Table
}{
	{"table1", func(experiments.Scale) *experiments.Table { return experiments.Table1() }},
	{"sram", func(experiments.Scale) *experiments.Table { return experiments.SRAM() }},
	{"d2", experiments.D2Sharding},
	{"d4", experiments.D4Violations},
	{"d3", experiments.D3Steering},
	{"fig7a", experiments.Fig7a},
	{"fig7b", experiments.Fig7b},
	{"fig7c", experiments.Fig7c},
	{"fig7d", experiments.Fig7d},
	{"fig8", experiments.Fig8},
	{"remap", experiments.AblationRemapInterval},
	{"fifocap", experiments.AblationFIFOCapacity},
	{"skew", experiments.AblationSkew},
	{"mitigations", experiments.AblationMitigations},
	{"chiplet", experiments.AblationChiplet},
	{"atoms", func(experiments.Scale) *experiments.Table { return experiments.Atoms() }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; the return value
// is the process exit code (2 for a usage error, 1 for an I/O failure).
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.name
	}
	choices := strings.Join(names, ", ")

	fs := flag.NewFlagSet("mp5bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run at the paper's scale (10 seeds)")
	only := fs.String("only", "", "run a single experiment: "+choices)
	packets := fs.Int("packets", 0, "override trace length")
	seeds := fs.Int("seeds", 0, "override seed count")
	metricsOut := fs.String("metrics-out", "", "write a Prometheus-text snapshot of the harness metrics to this file when done")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sc := experiments.DefaultScale
	if *full {
		sc = experiments.PaperScale
	}
	if *packets > 0 {
		sc.Packets = *packets
	}
	if *seeds > 0 {
		sc.Seeds = *seeds
	}

	if *only == "" {
		fmt.Fprintf(stdout, "MP5 evaluation reproduction — scale: %d packets x %d seeds\n\n", sc.Packets, sc.Seeds)
	}
	found := false
	for _, t := range tables {
		if *only == "" || strings.EqualFold(*only, t.name) {
			fmt.Fprintln(stdout, t.run(sc).Format())
			found = true
		}
	}
	if !found {
		fmt.Fprintf(stderr, "mp5bench: unknown experiment %q (choices: %s)\n", *only, choices)
		return 2
	}
	return writeMetrics(stderr, *metricsOut)
}

// writeMetrics snapshots the harness-wide telemetry registry (simulations
// run, packets pushed, cycles simulated, per-architecture breakdown) in
// Prometheus text format, and returns the exit code.
func writeMetrics(stderr io.Writer, path string) int {
	if path == "" {
		return 0
	}
	f, err := os.Create(path)
	if err == nil {
		err = experiments.Metrics.WriteProm(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "mp5bench:", err)
		return 1
	}
	return 0
}
