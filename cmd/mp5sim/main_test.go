package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sim runs the CLI in-process and returns its exit code and both streams.
func sim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// verdict returns the equivalence line of a run's stdout.
func verdict(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "equivalence") {
			return line
		}
	}
	t.Fatalf("no equivalence line in:\n%s", out)
	return ""
}

func TestEnginesPassVerdict(t *testing.T) {
	for _, engine := range []string{"sim", "dataplane", "screp"} {
		t.Run(engine, func(t *testing.T) {
			code, out, errs := sim("-app", "sequencer", "-packets", "2000", "-engine", engine, "-workers", "2")
			if code != 0 || errs != "" {
				t.Fatalf("exit %d, stderr %q\n%s", code, errs, out)
			}
			if v := verdict(t, out); !strings.Contains(v, "OK (2000 packets, all registers, C1 order)") {
				t.Fatalf("verdict %q", v)
			}
		})
	}
}

// TestNoD4FailsOrder: without D4 the simulator reaches the reference's
// registers on the skewed synthetic program but not its per-slot access
// order, and the verdict must say so.
func TestNoD4FailsOrder(t *testing.T) {
	code, out, _ := sim("-synthetic", "4", "-pattern", "skewed", "-packets", "5000", "-arch", "mp5-nod4")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	v := verdict(t, out)
	if !strings.Contains(v, "FAILED") || !strings.Contains(v, "out of order") || !strings.Contains(out, "order: r") {
		t.Fatalf("verdict does not report an order divergence:\n%s", out)
	}
}

func TestUnknownNamesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "sequencer", "-engine", "nope"},
		{"-app", "sequencer", "-arch", "nope"},
	} {
		code, out, errs := sim(args...)
		if code != 2 || out != "" || !strings.Contains(errs, `"nope"`) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out, errs)
		}
	}
}

// TestTelemetryFiles: the JSONL stream carries events, samples and one run
// record, the metrics file is Prometheus text with the mp5_* set, and the
// recorder's counters reconcile with the Result (exit 0).
func TestTelemetryFiles(t *testing.T) {
	dir := t.TempDir()
	jsonlPath, promPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.prom")
	code, out, errs := sim("-synthetic", "2", "-regsize", "64", "-pattern", "skewed", "-packets", "2000",
		"-sample-interval", "100", "-trace-jsonl", jsonlPath, "-metrics-out", promPath)
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q\n%s", code, errs, out)
	}
	if !strings.Contains(out, "latency breakdown") {
		t.Fatalf("no latency summary printed:\n%s", out)
	}
	f, err := os.Open(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		counts[rec.Type]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["event"] == 0 || counts["sample"] == 0 || counts["run"] != 1 || len(counts) != 3 {
		t.Fatalf("record counts = %v", counts)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mp5_packets_injected_total 2000", "mp5_packets_completed_total 2000", "mp5_packet_latency_cycles_count 2000"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics file lacks %q", want)
		}
	}
}
