package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// bench runs the CLI in-process and returns its exit code and both streams.
func bench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestOnlyTable1(t *testing.T) {
	code, out, errs := bench("-only", "table1")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if !strings.Contains(out, "Table 1") {
		t.Fatalf("table not printed:\n%s", out)
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

func TestUnknownExperiment(t *testing.T) {
	code, _, errs := bench("-only", "fig9")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, want := range []string{`"fig9"`, "table1", "fig8", "atoms"} {
		if !strings.Contains(errs, want) {
			t.Fatalf("stderr %q does not mention %s", errs, want)
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
