// Command bench is the repository's performance benchmark: four workloads,
// each one process that sets the system up, verifies its outputs against the
// single-pipeline reference, measures a timed region and prints one JSON
// object. README.md in this directory is the glossary.
//
//	bash bench/run.sh --workload engine-scatter --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare dirA dirB
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mp5/internal/workload"
)

// gitSHA is stamped by run.sh when the checkout is a git repository.
var gitSHA = "unknown"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{sizes: fullSizes}
	fs.StringVar(&opt.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs (7 is held out for claims)")
	fs.Float64Var(&opt.seconds, "seconds", 20, "length of the timed region")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and the span file")
	fs.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory the traced run writes its span file to")
	compare := fs.Bool("compare", false, "compare two directories of run outputs: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	opt.traced = *trace != 0
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	res, err := runBench(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is the fingerprint a run prints as its first line.
type environment struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	RegionSeconds float64 `json:"region_seconds"`
	Traced        bool    `json:"traced"`
	CPUModel      string  `json:"cpu_model"`
	NProc         int     `json:"nproc"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Workers       int     `json:"workers"`
	SingleCPU     bool    `json:"single_cpu"`
	GoVersion     string  `json:"go_version"`
	GitSHA        string  `json:"git_sha"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// newWorkload builds the named workload. Each fixes its programs, access
// patterns, client counts and rates here and nowhere else.
func newWorkload(r *run) (workloadImpl, error) {
	// Skewed traces re-draw their hot sets every 256 cycles (1,024 packets at
	// line rate): flow churn, and the reason a metric moves little with the
	// seed.
	scatter := synth{stages: 8, regSize: 8, pattern: workload.Skewed, churn: 256}
	wide := synth{stages: 4, regSize: 512, pattern: workload.Uniform}
	win := r.opt.sizes.window
	switch r.opt.workload {
	case wlEngineScatter:
		return &engineScatter{r: r, s: scatter}, nil
	case wlWireClosed:
		return &wire{r: r, tenants: []*tenantLoad{{name: "a", s: wide, window: win}}}, nil
	case wlWireOpen:
		// b's client window (64) stays under its quota (128): the quota path
		// runs on every batch and never sheds.
		return &wire{r: r, tenants: []*tenantLoad{
			{name: "a", s: wide, window: win, rate: 30000},
			{name: "b", s: scatter, quota: win / 2, window: win / 4, rate: 20000, swap: true},
		}}, nil
	case wlSimSkewed:
		return &simSkewed{r: r, s: synth{stages: 4, regSize: 512, pattern: workload.Skewed, churn: 256}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", r.opt.workload, strings.Join(workloadNames, ", "))
}

// Shares of --seconds a traced run spends: an untraced region (the base of
// trace.overhead_frac), the traced region, and each ladder rung.
const (
	tracedRegionShare = 0.3
	rungShare         = 0.1
)

func runBench(opt options, stdout io.Writer) (*result, error) {
	r := &run{
		opt:     opt,
		rec:     newRecorder(fmt.Sprintf("%s-seed%d", opt.workload, opt.seed)),
		workers: min(2, runtime.NumCPU()),
		layer:   map[string]float64{},
	}
	w, err := newWorkload(r)
	if err != nil {
		return nil, err
	}
	env := environment{
		Workload: opt.workload, Seed: opt.seed, RegionSeconds: opt.seconds, Traced: opt.traced,
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers: r.workers, SingleCPU: runtime.NumCPU() == 1,
		GoVersion: runtime.Version(), GitSHA: gitSHA,
	}
	line, err := json.Marshal(map[string]environment{"env": env})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))

	// Set up several times and keep the last system: setup_s is the median,
	// steadier than one sub-3-second reading.
	var sys system
	var setups []float64
	for rep := 0; rep < opt.sizes.setupReps; rep++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		id := r.rec.begin("setup")
		if err := w.prepare(); err != nil {
			return nil, err
		}
		if sys, err = w.start(false); err != nil {
			return nil, err
		}
		setups = append(setups, r.rec.end(id).Seconds())
	}
	dur := time.Duration(opt.seconds * float64(time.Second))

	res := &result{Metrics: map[string]metricValue{}}
	var g *region
	if !opt.traced {
		id := r.rec.begin("region")
		g, err = sys.measure(dur, nil)
		r.rec.end(id)
		if cerr := sys.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		values := map[string]float64{
			"pps": g.pps(), "lat_p50_us": g.latP50,
			"sim_throughput": r.simThroughput, "setup_s": median(setups),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{clean(values[d.name]), d.unit}
		}
	} else {
		if g, err = tracedRun(r, w, sys, dur); err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{clean(r.layer[d.name]), d.unit}
		}
		path := filepath.Join(opt.outDir, opt.workload+".spans.jsonl")
		if err := r.rec.write(path); err != nil {
			return nil, err
		}
	}
	res.Attempted = g.attempted
	res.Failed = g.attempted - g.completed
	res.Correct = r.verifyErr == nil
	if r.verifyErr != nil {
		fmt.Fprintln(os.Stderr, "bench: VERIFICATION FAILED:", r.verifyErr)
		res.Failed = g.attempted
	}
	return res, nil
}

// clean keeps the result line valid JSON.
func clean(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
