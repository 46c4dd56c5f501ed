package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mp5/internal/experiments"
)

// bench runs the CLI in-process and returns its exit code and both streams.
func bench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestOnlyTable1 pins -only's output: the one table's markdown and a blank
// line, with no scale line and no host timing.
func TestOnlyTable1(t *testing.T) {
	code, out, errs := bench("-only", "TABLE1")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if want := experiments.Table1().Format() + "\n"; out != want {
		t.Fatalf("stdout:\n%s\nwant:\n%s", out, want)
	}
}

// TestStdoutDeterministic holds the tables to the worker count: cells run
// in parallel across GOMAXPROCS workers but land in indexed slots.
func TestStdoutDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, one, _ := bench("-only", "fig7c", "-packets", "1500", "-seeds", "2")
	runtime.GOMAXPROCS(4)
	if _, four, _ := bench("-only", "fig7c", "-packets", "1500", "-seeds", "2"); four != one {
		t.Fatalf("GOMAXPROCS=1:\n%s\nGOMAXPROCS=4:\n%s", one, four)
	}
}

// TestMetricsOut checks the snapshot is Prometheus text: every sample line
// is `name[{labels}] value` with a numeric value, and the harness counted
// the simulations the experiment ran.
func TestMetricsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.prom")
	code, _, errs := bench("-only", "d2", "-packets", "2000", "-seeds", "1", "-metrics-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples := map[string]float64{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("sample line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	if samples["mp5bench_sims_total"] <= 0 || samples["mp5bench_packets_injected_total"] <= 0 {
		t.Fatalf("harness counters missing or zero: %v", samples)
	}
}

// TestUnknownExperiment checks that the error and the -h text both name
// every experiment.
func TestUnknownExperiment(t *testing.T) {
	code, _, errs := bench("-only", "fig9")
	if code != 2 || !strings.Contains(errs, `"fig9"`) {
		t.Fatalf("exit %d (want 2), stderr %q", code, errs)
	}
	_, _, help := bench("-h")
	for _, e := range tables {
		if !strings.Contains(errs, e.name) || !strings.Contains(help, e.name) {
			t.Errorf("%s missing from the error %q or from -h", e.name, errs)
		}
	}
}

// TestRemovedFlagsAreErrors pins the host-timing modes' removal: a stale
// doc or script that still passes one must fail loudly, not fall through to
// the full experiment run.
func TestRemovedFlagsAreErrors(t *testing.T) {
	removed := []string{"-bench-out=f"}
	for _, mode := range []string{"core", "dataplane", "server", "tenant"} {
		removed = append(removed, "-"+mode+"-bench")
	}
	for _, flag := range removed {
		code, out, errs := bench(flag)
		if code != 2 || out != "" || !strings.Contains(errs, "flag provided but not defined") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q", flag, code, out, errs)
		}
	}
}
