// Command mp5bench regenerates the paper's evaluation tables and figures
// (Table 1, the §4.2 SRAM overhead, the §4.3.2 D2/D3/D4 microbenchmarks,
// the Figure-7 sensitivity sweeps, and the Figure-8 application runs) as
// aligned text tables. Host-time measurements are not its job: those come
// from the benchmark harness (bench/run.sh, see bench/README.md).
//
// Usage:
//
//	mp5bench                 # everything at the default scale
//	mp5bench -full           # the paper's scale (10 seeds, longer traces)
//	mp5bench -only fig7a     # one experiment
//	                         # (table1, sram, d2, d3, d4,
//	                         #  fig7a..fig7d, fig8)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mp5/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; the return value
// is the process exit code (2 for a usage error, 1 for an I/O failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mp5bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run at the paper's scale (10 seeds)")
	only := fs.String("only", "", "run a single experiment: table1, sram, d2, d3, d4, fig7a, fig7b, fig7c, fig7d, fig8")
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

	all := map[string]func() *experiments.Table{
		"table1":      experiments.Table1,
		"sram":        experiments.SRAM,
		"d2":          func() *experiments.Table { return experiments.D2Sharding(sc) },
		"d4":          func() *experiments.Table { return experiments.D4Violations(sc) },
		"d3":          func() *experiments.Table { return experiments.D3Steering(sc) },
		"fig7a":       func() *experiments.Table { return experiments.Fig7a(sc) },
		"fig7b":       func() *experiments.Table { return experiments.Fig7b(sc) },
		"fig7c":       func() *experiments.Table { return experiments.Fig7c(sc) },
		"fig7d":       func() *experiments.Table { return experiments.Fig7d(sc) },
		"fig8":        func() *experiments.Table { return experiments.Fig8(sc) },
		"remap":       func() *experiments.Table { return experiments.AblationRemapInterval(sc) },
		"fifocap":     func() *experiments.Table { return experiments.AblationFIFOCapacity(sc) },
		"skew":        func() *experiments.Table { return experiments.AblationSkew(sc) },
		"mitigations": func() *experiments.Table { return experiments.AblationMitigations(sc) },
		"chiplet":     func() *experiments.Table { return experiments.AblationChiplet(sc) },
		"atoms":       experiments.Atoms,
	}
	order := []string{"table1", "sram", "d2", "d4", "d3", "fig7a", "fig7b", "fig7c", "fig7d", "fig8"}
	ablations := []string{"remap", "fifocap", "skew", "mitigations", "chiplet", "atoms"}

	if *only != "" {
		f, ok := all[strings.ToLower(*only)]
		if !ok {
			fmt.Fprintf(stderr, "mp5bench: unknown experiment %q (choices: %s)\n",
				*only, strings.Join(append(append([]string{}, order...), ablations...), ", "))
			return 2
		}
		emit(stdout, f)
		return writeMetrics(stderr, *metricsOut)
	}
	fmt.Fprintf(stdout, "MP5 evaluation reproduction — scale: %d packets x %d seeds\n\n", sc.Packets, sc.Seeds)
	for _, name := range order {
		emit(stdout, all[name])
	}
	fmt.Fprintln(stdout, "--- extensions beyond the paper's artifacts ---")
	for _, name := range ablations {
		emit(stdout, all[name])
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

func emit(w io.Writer, f func() *experiments.Table) {
	start := time.Now()
	t := f()
	fmt.Fprintln(w, t.Format())
	fmt.Fprintf(w, "(%.1fs)\n\n", time.Since(start).Seconds())
}
