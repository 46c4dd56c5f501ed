package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// quickSizes shrinks a run to a smoke test: every phase and every code path
// of the benchmark, on traces too short to measure anything.
var quickSizes = sizes{
	trace:       4096,
	simTrace:    4096,
	verify:      2048,
	warm:        2048,
	predictSubs: 2,
	predictPkts: 1024,
	setupReps:   1,
	chunk:       256,
	window:      256,
}

func quick(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: 1, seconds: 0.3, traced: traced, outDir: t.TempDir(), sizes: quickSizes}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickRuns runs every workload both ways and checks the result line's
// shape: exactly the named metrics, each with its unit, no failed operation.
func TestQuickRuns(t *testing.T) {
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, traced), func(t *testing.T) {
				opt := quick(t, wl, traced)
				var out bytes.Buffer
				res, err := runBench(opt, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var head struct {
					Env environment `json:"env"`
				}
				if err := json.Unmarshal(out.Bytes(), &head); err != nil || head.Env.Workload != wl || head.Env.GoVersion == "" || head.Env.NProc < 1 {
					t.Fatalf("env line %q: %v", out.String(), err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case v.Unit != d.unit:
						t.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s is %v", d.name, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, want > 0", d.name, v.Value)
					}
				}
				if !traced {
					return
				}
				if _, err := os.Stat(filepath.Join(opt.outDir, wl+".spans.jsonl")); err != nil {
					t.Errorf("span file: %v", err)
				}
				checkLayers(t, wl, res.Metrics)
			})
		}
	}
}

// checkLayers holds a traced run to the layer ladder's identity and to the
// rule that a layer the workload does not touch reads 0.
func checkLayers(t *testing.T, wl string, m map[string]metricValue) {
	get := func(name string) float64 { return m[name].Value }
	wire := wl == wlWireClosed || wl == wlWireOpen
	for name, v := range m {
		server := strings.HasPrefix(name, "server.") || strings.HasPrefix(name, "tenant.")
		if server && !wire && v.Value != 0 {
			t.Errorf("%s = %v on %s, which has no server", name, v.Value, wl)
		}
		if strings.HasPrefix(name, "tenant.") && wl != wlWireOpen && v.Value != 0 {
			t.Errorf("%s = %v on %s, which has one tenant", name, v.Value, wl)
		}
	}
	if wl == wlSimSkewed {
		if get("core.host_ns_per_pkt") <= 0 || get("dataplane.w1_ns_per_pkt") != 0 {
			t.Errorf("sim-skewed: core.host_ns_per_pkt=%v dataplane.w1_ns_per_pkt=%v", get("core.host_ns_per_pkt"), get("dataplane.w1_ns_per_pkt"))
		}
		return
	}
	workers := min(2, runtime.NumCPU())
	top := get(fmt.Sprintf("dataplane.w%d_ns_per_pkt", workers))
	sum := get("banzai.process_ns_per_pkt") + get("dataplane.added_ns_per_pkt")
	if wire {
		top = get("server.wire_ns_per_pkt")
		sum += get("server.added_ns_per_pkt")
	}
	if top <= 0 || math.Abs(sum-top) > 1e-6*top {
		t.Errorf("ladder deltas sum to %v, top rung is %v", sum, top)
	}
}

// TestPredictionRepeats: the simulator's prediction is a function of the
// seed alone.
func TestPredictionRepeats(t *testing.T) {
	var got [2]float64
	for i := range got {
		res, err := runBench(quick(t, wlSimSkewed, false), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res.Metrics["sim_throughput"].Value
	}
	if got[0] != got[1] || got[0] <= 0 {
		t.Errorf("sim_throughput %v then %v with one seed", got[0], got[1])
	}
}

// TestCorruptOutputFailsRun: a wrong recorded output must turn the run
// incorrect, count every operation as failed and exit non-zero.
func TestCorruptOutputFailsRun(t *testing.T) {
	for _, wl := range []string{wlEngineScatter, wlSimSkewed} {
		opt := quick(t, wl, false)
		opt.corrupt = true
		res, err := runBench(opt, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v failed=%d of %d after corrupting an output", wl, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || !nameRE.MatchString(g.Name) {
				t.Errorf("%s[%d]: %+v, want %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || *g.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v, want %v", kind, i, g.Name, g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{1, 2, 4}); q != [3]float64{1, 2, 4} {
		t.Errorf("quartiles = %v", q)
	}
}

// TestCompare: equal sets pass, a throughput drop beyond the bound fails,
// and a spread wider than the bound is unresolved.
func TestCompare(t *testing.T) {
	write := func(pps []float64) string {
		dir := t.TempDir()
		for i, v := range pps {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"pps": {v, "1/s"}}}
			head, _ := json.Marshal(map[string]environment{"env": {Workload: wlWireClosed}})
			line, _ := json.Marshal(res)
			name := filepath.Join(dir, fmt.Sprintf("run-%02d.json", i))
			if err := os.WriteFile(name, []byte(string(head)+"\n"+string(line)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	base := write([]float64{100, 101, 102, 103, 104})
	for _, tc := range []struct {
		name string
		pps  []float64
		code int
		want string
	}{
		{"same", []float64{101, 100, 103, 102, 104}, 0, "ok"},
		{"slower", []float64{70, 71, 72, 73, 74}, 1, "REGRESSION"},
		{"noisy", []float64{40, 70, 100, 130, 160}, 1, "UNRESOLVED"},
		{"faster", []float64{150, 151, 152, 153, 154}, 0, "ok"},
	} {
		var out bytes.Buffer
		if code := compareDirs(base, write(tc.pps), &out, io.Discard); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
