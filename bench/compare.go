package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRuns reads every *.json file of dir — each the captured standard
// output of one run: the env line, then the result line last — and groups
// the results by workload, in file-name order.
func loadRuns(dir string) (map[string][]result, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	runs := map[string][]result{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var head struct {
			Env environment `json:"env"`
		}
		var res result
		if err := json.Unmarshal([]byte(lines[0]), &head); err != nil || head.Env.Workload == "" {
			return nil, fmt.Errorf("%s: first line is not a run's env line", name)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
			return nil, fmt.Errorf("%s: last line is not a run's result line", name)
		}
		runs[head.Env.Workload] = append(runs[head.Env.Workload], res)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run outputs (*.json)", dir)
	}
	return runs, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive method), so a
// spread computed here is the one the acceptance check computes.
func quartiles(xs []float64) (q [3]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := len(s) + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q
}

// side summarizes one directory's values of one metric.
type side struct {
	values        []float64
	q1, med, q3   float64
	spreadOverMed float64
}

func summarize(rs []result, metric string) side {
	var s side
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			s.values = append(s.values, v.Value)
		}
	}
	if len(s.values) == 0 {
		return s
	}
	q := quartiles(s.values)
	s.q1, s.med, s.q3 = q[0], median(s.values), q[2]
	if s.med != 0 {
		s.spreadOverMed = (s.q3 - s.q1) / s.med
	}
	return s
}

// worseSign is +1 when a larger value is worse.
func worseSign(d metricDef) float64 {
	if d.better == "higher" {
		return -1
	}
	return 1
}

// verdict judges B against A for one bounded metric, given how much worse
// B's median is as a share of A's.
func verdict(a, b side, d metricDef, worse float64) string {
	sign := worseSign(d)
	if a.spreadOverMed > d.bound || b.spreadOverMed > d.bound {
		// Too noisy to call, unless every B run beats every A run.
		allBetter := true
		for _, x := range a.values {
			for _, y := range b.values {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "UNRESOLVED"
		}
		return "ok"
	}
	if worse > d.bound {
		return "REGRESSION"
	}
	return "ok"
}

// compareDirs prints, per workload and metric, both sides' medians and
// quartiles, the pair wins (run i of A against run i of B) and, for the
// end-to-end metrics, the verdict against the metric's bound. It returns 1
// when a cell is out of bound or unresolved. Two sets of runs of one commit
// make it the A/A check.
func compareDirs(dirA, dirB string, stdout, stderr io.Writer) int {
	a, err := loadRuns(dirA)
	if err == nil {
		var b map[string][]result
		if b, err = loadRuns(dirB); err == nil {
			return compareRuns(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareRuns(a, b map[string][]result, stdout io.Writer) int {
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.name] = d
	}
	bad := 0
	fmt.Fprintf(stdout, "%-15s %-34s %40s %40s %9s %8s  %s\n", "workload", "metric",
		"A median [q1, q3] n", "B median [q1, q3] n", "B/A wins", "worse", "verdict")
	for _, wl := range workloadNames {
		if len(a[wl]) == 0 || len(b[wl]) == 0 {
			continue
		}
		var names []string
		for name := range a[wl][0].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			d := defs[name]
			sa, sb := summarize(a[wl], name), summarize(b[wl], name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			winsA, winsB := 0, 0
			for i := 0; i < min(len(sa.values), len(sb.values)); i++ {
				switch x, y := sa.values[i], sb.values[i]; {
				case x == y:
				case (y < x) == (d.better != "higher"):
					winsB++
				default:
					winsA++
				}
			}
			worse := worseSign(d) * (sb.med - sa.med) / sa.med
			v := "-"
			if d.bound > 0 {
				v = verdict(sa, sb, d, worse)
				if v != "ok" {
					bad++
				}
				v = fmt.Sprintf("%s (bound %.2f, spreads %.3f/%.3f)", v, d.bound, sa.spreadOverMed, sb.spreadOverMed)
			}
			cell := func(s side) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.med, s.q1, s.q3, len(s.values))
			}
			fmt.Fprintf(stdout, "%-15s %-34s %40s %40s %4d/%-4d %+7.2f%%  %s\n",
				wl, name, cell(sa), cell(sb), winsB, winsA, 100*worse, v)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d end-to-end cells out of bound or unresolved\n", bad)
		return 1
	}
	return 0
}
